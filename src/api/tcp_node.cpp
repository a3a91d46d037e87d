#include "api/tcp_node.hpp"

#include <cerrno>
#include <chrono>
#include <condition_variable>

namespace sdvm {

TcpNode::TcpNode() = default;

Result<std::unique_ptr<TcpNode>> TcpNode::create(Options options) {
  auto node = std::unique_ptr<TcpNode>(new TcpNode());
  node->site_ = std::make_unique<Site>(options.site, WallClock::instance(),
                                       node->engine_);
  Site* site = node->site_.get();
  auto transport = net::TcpTransport::listen(
      options.port,
      [site](std::vector<std::byte> bytes) {
        site->on_network_data(std::move(bytes));
      },
      options.transport);
  if (!transport.is_ok()) return transport.status();
  auto tcp = std::move(transport).value();
  node->tcp_ = tcp.get();

  // Transport health lands in Site::introspect() (and thus sdvm-top /
  // kMetricsQuery) alongside the runtime's own instruments.
  net::TcpTransport* raw = node->tcp_;
  site->metrics_registry().register_provider(
      [raw](metrics::MetricsSnapshot& s) {
        net::TcpTransport::Stats st = raw->stats();
        s.add_counter("net.frames_sent", st.frames_sent);
        s.add_counter("net.bytes_sent", st.bytes_sent);
        s.add_counter("net.batches_sent", st.batches_sent);
        s.add_counter("net.flush_deadline_hits", st.flush_deadline_hits);
        s.add_counter("net.flush_size_hits", st.flush_size_hits);
        s.add_counter("net.frames_dropped", st.frames_dropped);
        s.add_counter("net.send_retries", st.send_retries);
        s.add_counter("net.reconnects", st.reconnects);
        s.add_counter("net.peers_unreachable", st.peers_unreachable);
        s.add_counter("net.frames_oversized", st.frames_oversized);
        s.add_counter("net.batches_malformed", st.batches_malformed);
        // Coalescing efficacy: batches carrying [2^k, 2^(k+1)) frames.
        for (std::size_t k = 0;
             k < net::TcpTransport::Stats::kBatchBuckets; ++k) {
          if (st.frames_per_batch[k] == 0) continue;
          s.add_counter("net.frames_per_batch.ge" + std::to_string(1u << k),
                        st.frames_per_batch[k]);
        }
      });

  // Retry-budget exhaustion is a failure-detector input: an unreachable
  // verdict accelerates what the heartbeat timeout would conclude anyway.
  // The hook runs on the transport's event-loop thread with no transport
  // locks held, so taking the site lock here respects the site -> transport
  // lock order.
  node->tcp_->set_unreachable_hook([site](const std::string& address) {
    std::lock_guard lk(site->lock());
    if (!site->cluster().joined()) return;
    for (SiteId sid : site->cluster().live_sites()) {
      const std::string* addr = site->cluster().physical_address(sid);
      if (addr != nullptr && *addr == address) {
        site->cluster().mark_dead(sid, /*gossip=*/true);
        return;
      }
    }
  });

  if (options.faults.has_value()) {
    auto faulty = std::make_unique<net::FaultyTransport>(std::move(tcp),
                                                         *options.faults);
    node->faulty_ = faulty.get();
    node->site_->attach_transport(std::move(faulty));
  } else {
    node->site_->attach_transport(std::move(tcp));
  }

  node->engine_.start(*node->site_);
  return node;
}

TcpNode::~TcpNode() { shutdown(); }

void TcpNode::bootstrap() { site_->bootstrap(); }

Status TcpNode::join_cluster(const std::string& contact, Nanos timeout) {
  using std::chrono::steady_clock;
  const auto deadline = steady_clock::now() + std::chrono::nanoseconds(timeout);
  // The sign-on request itself can be lost (contact not up yet, link flap),
  // so re-send it with backoff until the deadline truly expires. The
  // contact dedupes repeated sign-ons by address, so retries are safe.
  Nanos backoff = 100'000'000;  // 100 ms, doubling, capped at 2 s
  site_->join(contact);
  auto next_resend = steady_clock::now() + std::chrono::nanoseconds(backoff);
  while (!site_->joined()) {
    auto now = steady_clock::now();
    if (now >= deadline) {
      net::TcpTransport::PeerState ps = tcp_->peer_state(contact);
      if (ps.last_errno == ECONNREFUSED) {
        return Status::error(
            ErrorCode::kUnavailable,
            "join via " + contact +
                ": connection refused (is a node listening there?)");
      }
      return Status::error(ErrorCode::kUnavailable,
                           "join via " + contact + " timed out");
    }
    if (now >= next_resend) {
      // Clear a stale unreachable verdict so the transport re-probes the
      // contact immediately instead of waiting out its cooldown.
      tcp_->reset_peer(contact);
      site_->join(contact);
      backoff = std::min<Nanos>(backoff * 2, 2'000'000'000);
      next_resend = now + std::chrono::nanoseconds(backoff);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return Status::ok();
}

std::string TcpNode::address() const {
  return site_->transport()->local_address();
}

Result<ProgramId> TcpNode::start_program(const ProgramSpec& spec,
                                         std::size_t home_index) {
  if (home_index != 0) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "a TcpNode hosts exactly one site (home_index 0)");
  }
  return site_->start_program(spec);
}

Result<std::int64_t> TcpNode::wait_program(ProgramId pid, Nanos timeout) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::nanoseconds(timeout < 0 ? INT64_MAX : timeout);
  while (true) {
    {
      std::lock_guard lk(site_->lock());
      if (site_->programs().is_terminated(pid)) {
        return site_->programs().exit_code(pid).value_or(0);
      }
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::error(ErrorCode::kUnavailable,
                           "program did not terminate in time");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
}

Result<SiteStatus> TcpNode::status(std::size_t index) {
  if (index != 0) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "a TcpNode hosts exactly one site (index 0)");
  }
  return site_->introspect();
}

Result<ClusterStatus> TcpNode::cluster_status(std::size_t via_index,
                                              Nanos timeout) {
  if (via_index != 0) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "a TcpNode hosts exactly one site (index 0)");
  }
  struct Waiter {
    std::mutex m;
    std::condition_variable cv;
    std::optional<ClusterStatus> result;
  };
  auto waiter = std::make_shared<Waiter>();
  {
    std::lock_guard lk(site_->lock());
    site_->site_manager().query_cluster_status(
        [waiter](ClusterStatus cs) {
          std::lock_guard g(waiter->m);
          waiter->result = std::move(cs);
          waiter->cv.notify_all();
        },
        timeout);
  }
  std::unique_lock lk(waiter->m);
  bool done = waiter->cv.wait_for(
      lk, std::chrono::nanoseconds(timeout) + std::chrono::seconds(5),
      [&] { return waiter->result.has_value(); });
  if (!done) {
    return Status::error(ErrorCode::kUnavailable,
                         "cluster status query did not complete");
  }
  return std::move(*waiter->result);
}

Status TcpNode::install_trace_hook(std::size_t index, FrameTraceHook hook) {
  if (index != 0) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "a TcpNode hosts exactly one site (index 0)");
  }
  std::lock_guard lk(site_->lock());
  site_->set_frame_trace(std::move(hook));
  return Status::ok();
}

void TcpNode::shutdown() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  engine_.stop();
  if (site_->transport() != nullptr) site_->transport()->close();
}

}  // namespace sdvm
