#include "net/inproc.hpp"

#include <charconv>
#include <string_view>

#include "common/clock.hpp"
#include "common/log.hpp"

namespace sdvm::net {

Status InProcEndpoint::send(const std::string& to,
                            std::vector<std::byte> bytes) {
  if (net_ == nullptr) {
    return Status::error(ErrorCode::kFailedPrecondition, "endpoint closed");
  }
  return net_->send_from(*this, to, std::move(bytes));
}

void InProcEndpoint::close() {
  if (net_ != nullptr) {
    net_->detach(slot_);
    net_ = nullptr;
  }
}

InProcNetwork::InProcNetwork(std::uint64_t seed) : rng_(seed) {}

InProcNetwork::~InProcNetwork() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  timer_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
}

std::unique_ptr<InProcEndpoint> InProcNetwork::attach(Receiver receiver) {
  std::lock_guard lock(mu_);
  auto ep = std::make_unique<InProcEndpoint>(this, nodes_.size(),
                                             std::move(receiver));
  nodes_.push_back(Node{ep.get()});
  return ep;
}

void InProcNetwork::detach(std::size_t slot) {
  std::lock_guard lock(mu_);
  nodes_[slot].endpoint = nullptr;
}

std::size_t InProcNetwork::slot_locked(const std::string& address) const {
  constexpr std::string_view kPrefix = "inproc:";
  if (!address.starts_with(kPrefix)) return 0;
  const char* first = address.data() + kPrefix.size();
  const char* last = address.data() + address.size();
  // Canonical decimals only: "inproc:01" is not "inproc:1".
  if (first == last || *first == '0') return 0;
  std::size_t slot = 0;
  auto [end, ec] = std::from_chars(first, last, slot);
  return ec == std::errc{} && end == last && slot < nodes_.size() ? slot : 0;
}

void InProcNetwork::set_default_link(LinkModel model) {
  std::lock_guard lock(mu_);
  default_link_ = model;
}

void InProcNetwork::set_link(const std::string& from, const std::string& to,
                             LinkModel model) {
  std::lock_guard lock(mu_);
  links_[{from, to}] = model;
}

void InProcNetwork::kill(const std::string& address) {
  std::lock_guard lock(mu_);
  if (std::size_t slot = slot_locked(address)) nodes_[slot].killed = true;
}

bool InProcNetwork::is_killed(const std::string& address) const {
  std::lock_guard lock(mu_);
  return nodes_[slot_locked(address)].killed;
}

void InProcNetwork::partition(const std::vector<std::string>& a,
                              const std::vector<std::string>& b) {
  std::lock_guard lock(mu_);
  PartitionCut cut;
  cut.a.insert(a.begin(), a.end());
  cut.b.insert(b.begin(), b.end());
  partitioned_.push_back(std::move(cut));
}

bool InProcNetwork::is_partitioned_locked(const std::string& from,
                                          const std::string& to) const {
  for (const PartitionCut& cut : partitioned_) {
    if ((cut.a.contains(from) && cut.b.contains(to)) ||
        (cut.b.contains(from) && cut.a.contains(to))) {
      return true;
    }
  }
  return false;
}

void InProcNetwork::heal() {
  std::lock_guard lock(mu_);
  partitioned_.clear();
  for (Node& node : nodes_) node.killed = false;
}

void InProcNetwork::set_node_zone(const std::string& address, int zone) {
  std::lock_guard lock(mu_);
  if (std::size_t slot = slot_locked(address)) nodes_[slot].zone = zone;
}

void InProcNetwork::set_zone_link(int from_zone, int to_zone, LinkModel model) {
  std::lock_guard lock(mu_);
  zone_links_[{from_zone, to_zone}] = model;
}

void InProcNetwork::set_delivery_scheduler(DeliveryScheduler scheduler) {
  std::lock_guard lock(mu_);
  scheduler_ = std::move(scheduler);
}

void InProcNetwork::set_trace_hook(TraceHook hook) {
  std::lock_guard lock(mu_);
  trace_ = std::move(hook);
}

LinkStats InProcNetwork::total_stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void InProcNetwork::reset_stats() {
  std::lock_guard lock(mu_);
  stats_ = LinkStats{};
}

Status InProcNetwork::send_from(const InProcEndpoint& sender,
                                const std::string& to,
                                std::vector<std::byte> bytes) {
  const std::string& from = sender.address_;
  Nanos delay = 0;
  DeliveryScheduler scheduler;
  std::size_t target = 0;
  {
    std::lock_guard lock(mu_);
    auto drop = [&] {
      stats_.dropped++;
      if (trace_) trace_(from, to, bytes.size(), false);
    };
    target = slot_locked(to);
    const Node& src = nodes_[sender.slot_];
    const Node& dst = nodes_[target];
    if (src.killed || dst.killed) {
      drop();
      // A dead site is a black hole, not an error the sender can see —
      // failure detection is the cluster manager's job.
      return Status::ok();
    }
    if (is_partitioned_locked(from, to)) {
      drop();
      return Status::ok();
    }
    if (dst.endpoint == nullptr) {
      drop();
      return Status::error(ErrorCode::kUnavailable, "no endpoint " + to);
    }

    LinkModel model = default_link_;
    auto link = links_.empty() ? links_.end() : links_.find({from, to});
    if (link != links_.end()) {
      model = link->second;
    } else if (!zone_links_.empty() && src.zone && dst.zone) {
      if (auto zit = zone_links_.find({*src.zone, *dst.zone});
          zit != zone_links_.end()) {
        model = zit->second;
      }
    }
    if (model.cut || (model.loss > 0 && rng_.uniform() < model.loss)) {
      drop();
      return Status::ok();
    }

    stats_.messages++;
    stats_.bytes += bytes.size();
    if (trace_) trace_(from, to, bytes.size(), true);
    delay = model.latency +
            model.per_byte * static_cast<Nanos>(bytes.size());
    if (model.jitter > 0) {
      delay += static_cast<Nanos>(
          rng_.below(static_cast<std::uint64_t>(model.jitter) + 1));
    }
    scheduler = scheduler_;

    if (scheduler == nullptr && delay > 0) {
      // Wall-clock delayed delivery via the timer thread.
      if (!timer_thread_.joinable()) {
        timer_thread_ = std::thread([this] { timer_loop(); });
      }
      delayed_.push(Pending{WallClock::instance().now() + delay,
                            delayed_seq_++, target, std::move(bytes)});
      timer_cv_.notify_one();
      return Status::ok();
    }
  }

  if (scheduler != nullptr) {
    // Sim mode: the event loop owns time.
    auto payload = std::make_shared<std::vector<std::byte>>(std::move(bytes));
    scheduler(delay, to, [this, target, payload] {
      deliver(target, std::move(*payload));
    });
    return Status::ok();
  }

  deliver(target, std::move(bytes));
  return Status::ok();
}

void InProcNetwork::deliver(std::size_t slot, std::vector<std::byte> bytes) {
  Receiver receiver;
  {
    std::lock_guard lock(mu_);
    const Node& node = nodes_[slot];
    if (node.killed || node.endpoint == nullptr) return;
    receiver = node.endpoint->receiver_;
  }
  // Invoke outside the fabric lock: receivers enqueue into site inboxes.
  if (receiver) receiver(std::move(bytes));
}

void InProcNetwork::timer_loop() {
  std::unique_lock lock(mu_);
  while (!stop_) {
    if (delayed_.empty()) {
      timer_cv_.wait(lock, [this] { return stop_ || !delayed_.empty(); });
      continue;
    }
    Nanos now = WallClock::instance().now();
    if (delayed_.top().due > now) {
      timer_cv_.wait_for(lock,
                         std::chrono::nanoseconds(delayed_.top().due - now));
      continue;
    }
    Pending p = std::move(const_cast<Pending&>(delayed_.top()));
    delayed_.pop();
    lock.unlock();
    deliver(p.to, std::move(p.bytes));
    lock.lock();
  }
}

}  // namespace sdvm::net
