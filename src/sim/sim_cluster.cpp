#include "sim/sim_cluster.hpp"

#include <cmath>

namespace sdvm::sim {

/// Driver wiring a Site into the event loop: wakeups and work notifications
/// become events; Site::pump runs the site's microthread fibers.
class SimCluster::SimDriver final : public Driver {
 public:
  SimDriver(EventLoop& loop, std::uint32_t actor)
      : loop_(loop), actor_(actor) {}

  void bind(Site* site, bool* killed) {
    site_ = site;
    killed_ = killed;
  }

  /// The slot restarted: this driver's site is a dead incarnation. Stop
  /// pumping it — the killed flag is about to be reused by the new site.
  void retire() {
    site_ = nullptr;
    killed_ = nullptr;
  }

  void request_wakeup(Nanos delay) override { schedule_pump(delay); }
  [[nodiscard]] bool simulated() const override { return true; }

 private:
  void schedule_pump(Nanos delay) {
    // Coalesce: at most one outstanding zero-delay pump; timed wakeups are
    // cheap enough to just schedule.
    if (delay == 0) {
      if (pump_pending_) return;
      pump_pending_ = true;
    }
    loop_.schedule_tagged(delay,
                          EventTag{EventTag::Kind::kInternal, actor_},
                          [this, timed = delay != 0] {
                            if (!timed) pump_pending_ = false;
                            if (site_ != nullptr && killed_ != nullptr &&
                                !*killed_) {
                              (void)site_->pump();
                            }
                          });
  }

  EventLoop& loop_;
  std::uint32_t actor_;
  Site* site_ = nullptr;
  bool* killed_ = nullptr;
  bool pump_pending_ = false;
};

Status SimCluster::Options::validate() const {
  if (!(link.loss >= 0.0) || link.loss >= 1.0) {  // !(>=0) also catches NaN
    return Status::error(ErrorCode::kInvalidArgument,
                         "link loss must be in [0, 1), got " +
                             std::to_string(link.loss));
  }
  if (!zones.empty()) {
    if (Status s = validate_zones(zones); !s.is_ok()) return s;
  }
  return Status::ok();
}

SimCluster::SimCluster(Options options)
    : options_(std::move(options)), network_(options_.seed) {
  if (!options_.validate().is_ok()) {
    SDVM_ERROR("sim") << "clamping invalid link loss "
                      << options_.link.loss << " into [0, 1)";
    if (!(options_.link.loss >= 0.0)) {
      options_.link.loss = 0.0;
    } else {
      options_.link.loss = std::nextafter(1.0, 0.0);
    }
  }
  network_.set_default_link(options_.link);
  network_.set_delivery_scheduler([this](Nanos delay, const std::string& to,
                                         std::function<void()> fn) {
    EventTag tag{EventTag::Kind::kDelivery, 0};
    if (auto it = slot_of_addr_.find(to); it != slot_of_addr_.end()) {
      tag.actor = it->second;
    }
    loop_.schedule_tagged(delay, tag, std::move(fn));
  });
}

SimCluster::~SimCluster() = default;

// The Site owns a Transport; wrap the endpoint in a thin forwarder so the
// endpoint's lifetime stays with the entry (kill() needs its address).
namespace {
struct Forwarder final : net::Transport {
  net::InProcEndpoint* ep;
  explicit Forwarder(net::InProcEndpoint* e) : ep(e) {}
  std::string local_address() const override { return ep->local_address(); }
  Status send(const std::string& to, std::vector<std::byte> b) override {
    return ep->send(to, std::move(b));
  }
  void close() override {}
};
}  // namespace

void SimCluster::wire_site(Entry* e, std::size_t slot) {
  ++sites_wired_;
  e->driver =
      std::make_unique<SimDriver>(loop_, static_cast<std::uint32_t>(slot));
  e->site = std::make_unique<Site>(e->config, loop_.clock(), *e->driver);
  e->driver->bind(e->site.get(), &e->killed);
  e->endpoint = network_.attach(
      [site = e->site.get()](std::vector<std::byte> bytes) {
        site->on_network_data(std::move(bytes));
      });
  e->site->attach_transport(std::make_unique<Forwarder>(e->endpoint.get()));
  slot_of_addr_[e->endpoint->local_address()] =
      static_cast<std::uint32_t>(slot);
  if (e->zone < 0) e->zone = pending_zone_;
  if (e->zone >= 0) {
    network_.set_node_zone(e->endpoint->local_address(), e->zone);
  }
  if (e->store != nullptr) e->site->attach_state_store(e->store);
}

Site& SimCluster::add_site(SiteConfig config, int contact_index) {
  auto entry = std::make_unique<Entry>();
  Entry* e = entry.get();
  e->config = std::move(config);
  if (options_.durable_state && e->config.state_dir.empty()) {
    auto mem = std::make_shared<MemStateStore>();
    const auto& f = options_.disk_faults;
    if (f.torn_write > 0 || f.bit_flip > 0 || f.drop_write > 0) {
      // Per-slot seed so fault schedules stay deterministic under churn.
      FaultyStateStore::Options per_slot = f;
      per_slot.seed = f.seed + entries_.size() * 0x9E3779B9u + 1;
      e->faulty = std::make_shared<FaultyStateStore>(mem, per_slot);
      e->store = e->faulty;
    } else {
      e->store = std::move(mem);
    }
  }
  wire_site(e, entries_.size());

  entries_.push_back(std::move(entry));

  if (entries_.size() == 1) {
    e->site->bootstrap();
  } else {
    std::size_t idx = std::min<std::size_t>(
        static_cast<std::size_t>(std::max(contact_index, 0)),
        entries_.size() - 2);
    std::string contact = entries_[idx]->endpoint->local_address();
    e->site->join(contact);
    bool ok = loop_.run_until([e] { return e->site->joined(); },
                              loop_.now() + 10 * kNanosPerSecond);
    if (!ok) {
      SDVM_ERROR("sim") << "site failed to join within virtual 10s";
    }
  }
  return *e->site;
}

void SimCluster::add_sites(int n, double speed, const SiteConfig& base) {
  for (int i = 0; i < n; ++i) {
    SiteConfig cfg = base;
    cfg.name = "site" + std::to_string(entries_.size() + 1);
    cfg.speed = speed;
    add_site(cfg);
  }
}

Status SimCluster::add_topology_sites(const SiteConfig& base) {
  auto table = build_zone_table(options_.zones);
  if (!table.is_ok()) return table.status();
  const ZoneTable& zt = table.value();

  const int n = static_cast<int>(zt.zones.size());
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      network_.set_zone_link(a, b, zt.link(a, b));
    }
  }
  for (int z = 0; z < n; ++z) {
    const ZoneTable::ZoneInfo& info = zt.zones[static_cast<std::size_t>(z)];
    pending_zone_ = z;
    for (int i = 0; i < info.sites; ++i) {
      SiteConfig cfg = base;
      cfg.name = info.name + "-site" + std::to_string(entries_.size() + 1);
      cfg.speed = base.speed * info.speed;
      add_site(cfg);
    }
  }
  pending_zone_ = -1;
  return Status::ok();
}

void SimCluster::enable_event_hash() {
  network_.set_trace_hook([this](const std::string& from, const std::string& to,
                                 std::size_t size, bool delivered) {
    constexpr std::uint64_t kPrime = 1099511628211ULL;
    auto mix = [&](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        event_hash_ ^= (v >> (i * 8)) & 0xFF;
        event_hash_ *= kPrime;
      }
    };
    auto mix_str = [&](const std::string& s) {
      for (char c : s) {
        event_hash_ ^= static_cast<std::uint8_t>(c);
        event_hash_ *= kPrime;
      }
      event_hash_ ^= 0xFF;  // terminator: "ab","c" != "a","bc"
      event_hash_ *= kPrime;
    };
    mix(static_cast<std::uint64_t>(loop_.now()));
    mix_str(from);
    mix_str(to);
    mix(size);
    mix(delivered ? 1 : 0);
  });
}

Site* SimCluster::site_by_id(SiteId id) {
  for (auto& e : entries_) {
    if (e->site->id() == id) return e->site.get();
  }
  return nullptr;
}

Result<ProgramId> SimCluster::start_program(const ProgramSpec& spec,
                                            std::size_t home_index) {
  return entries_.at(home_index)->site->start_program(spec);
}

Result<std::int64_t> SimCluster::run_program(ProgramId pid, Nanos deadline) {
  // Any live site learning of the termination settles the wait — the home
  // site itself may die and be replaced by its checkpoint backup.
  auto find_verdict = [this, pid]() -> std::optional<std::int64_t> {
    for (auto& e : entries_) {
      if (e->killed || e->site->signed_off()) continue;
      if (e->site->programs().is_terminated(pid)) {
        return e->site->programs().exit_code(pid).value_or(0);
      }
    }
    return std::nullopt;
  };
  // A verdict can only appear when some site terminates the program, so
  // every site gets a waiter and the scan runs only after one fires — not
  // after every event. Sites wired since (joins, restarts) get one too.
  auto fired = std::make_shared<bool>(false);
  std::uint64_t watched_wirings = 0;
  auto verdict_ready = [&] {
    if (watched_wirings != sites_wired_) {
      watched_wirings = sites_wired_;
      for (auto& e : entries_) {
        e->site->programs().add_waiter(
            pid, [fired](std::int64_t) { *fired = true; });
      }
    }
    if (!*fired) return false;
    *fired = false;
    return find_verdict().has_value();
  };
  bool ok = loop_.run_until(verdict_ready,
                            deadline < 0 ? -1 : loop_.now() + deadline);
  if (!ok) {
    return Status::error(ErrorCode::kUnavailable,
                         "program did not terminate in time");
  }
  return *find_verdict();
}

Result<SiteStatus> SimCluster::status(std::size_t index) {
  if (index >= entries_.size()) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "no site at index " + std::to_string(index));
  }
  Entry* e = entries_[index].get();
  if (e->killed) {
    return Status::error(ErrorCode::kUnavailable, "site was killed");
  }
  return e->site->introspect();
}

Result<ClusterStatus> SimCluster::cluster_status(std::size_t via_index,
                                                 Nanos timeout) {
  if (via_index >= entries_.size()) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "no site at index " + std::to_string(via_index));
  }
  Entry* e = entries_[via_index].get();
  if (e->killed) {
    return Status::error(ErrorCode::kUnavailable, "site was killed");
  }

  std::optional<ClusterStatus> result;
  {
    std::lock_guard lk(e->site->lock());
    e->site->site_manager().query_cluster_status(
        [&result](ClusterStatus cs) { result = std::move(cs); }, timeout);
  }
  // The query's own timeout timer guarantees completion within `timeout`
  // virtual time; the margin lets that final timer event fire.
  loop_.run_until([&] { return result.has_value(); },
                  loop_.now() + timeout + kNanosPerSecond);
  if (!result.has_value()) {
    return Status::error(ErrorCode::kUnavailable,
                         "cluster status query did not complete");
  }
  return std::move(*result);
}

Status SimCluster::install_trace_hook(std::size_t index, FrameTraceHook hook) {
  if (index >= entries_.size()) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "no site at index " + std::to_string(index));
  }
  entries_[index]->site->set_frame_trace(std::move(hook));
  return Status::ok();
}

Result<SiteId> SimCluster::sign_off(std::size_t index) {
  auto result = entries_.at(index)->site->sign_off();
  // Let the relocation and notices drain.
  loop_.run_for(options_.link.latency * 10 + kNanosPerSecond / 100);
  return result;
}

void SimCluster::kill(std::size_t index) {
  Entry* e = entries_.at(index).get();
  e->killed = true;
  network_.kill(e->endpoint->local_address());
  e->site->processing().halt();
}

Site& SimCluster::restart(std::size_t index) {
  Entry* e = entries_.at(index).get();
  if (!e->killed) kill(index);

  // Retire (don't destroy) the dead incarnation: queued event-loop
  // callbacks and in-flight deliveries still point into it.
  e->driver->retire();
  retired_.push_back(Retired{std::move(e->driver), std::move(e->endpoint),
                             std::move(e->site)});

  e->killed = false;
  wire_site(e, static_cast<std::size_t>(index));

  // Join through any live member — like a real restarted daemon redialing
  // its peers. With nobody left, bootstrap a fresh cluster; recovery then
  // rests entirely on the state stores.
  Entry* contact = nullptr;
  for (auto& other : entries_) {
    if (other.get() == e || other->killed) continue;
    if (other->site->signed_off() || !other->site->joined()) continue;
    contact = other.get();
    break;
  }
  if (contact == nullptr) {
    e->site->bootstrap();
  } else {
    e->site->join(contact->endpoint->local_address());
    bool ok = loop_.run_until([e] { return e->site->joined(); },
                              loop_.now() + 10 * kNanosPerSecond);
    if (!ok) {
      SDVM_ERROR("sim") << "restarted site failed to join within virtual 10s";
    }
  }
  return *e->site;
}

std::uint64_t SimCluster::disk_faults_injected() const {
  std::uint64_t total = 0;
  for (const auto& e : entries_) {
    if (e->faulty != nullptr) total += e->faulty->faults_injected();
  }
  return total;
}

std::vector<std::string> SimCluster::outputs(std::size_t frontend_index,
                                             ProgramId pid) {
  return entries_.at(frontend_index)->site->io().outputs(pid);
}

}  // namespace sdvm::sim
