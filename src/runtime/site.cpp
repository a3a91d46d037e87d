#include "runtime/site.hpp"

namespace sdvm {

Site::Site(SiteConfig config, Clock& clock, Driver& driver)
    : config_(std::move(config)), clock_(clock), driver_(driver) {
  security_mgr_ = std::make_unique<SecurityManager>(config_);
  message_mgr_ = std::make_unique<MessageManager>(*this);
  cluster_mgr_ = std::make_unique<ClusterManager>(*this);
  program_mgr_ = std::make_unique<ProgramManager>(*this);
  code_mgr_ = std::make_unique<CodeManager>(*this);
  attraction_memory_ = std::make_unique<AttractionMemory>(*this);
  scheduling_mgr_ = std::make_unique<SchedulingManager>(*this);
  processing_mgr_ = std::make_unique<ProcessingManager>(*this);
  io_mgr_ = std::make_unique<IoManager>(*this);
  site_mgr_ = std::make_unique<SiteManager>(*this);
  crash_mgr_ = std::make_unique<CrashManager>(*this);

  // One instrument catalog per site: every manager contributes its
  // counters, gauges and histograms (identical names across all modes).
  security_mgr_->register_metrics(metrics_);
  message_mgr_->register_metrics(metrics_);
  cluster_mgr_->register_metrics(metrics_);
  code_mgr_->register_metrics(metrics_);
  attraction_memory_->register_metrics(metrics_);
  scheduling_mgr_->register_metrics(metrics_);
  processing_mgr_->register_metrics(metrics_);
  io_mgr_->register_metrics(metrics_);
  crash_mgr_->register_metrics(metrics_);

  if (!config_.state_dir.empty()) {
    state_store_ = std::make_shared<DirStateStore>(config_.state_dir);
  }
}

void Site::attach_transport(std::unique_ptr<net::Transport> transport) {
  transport_ = std::move(transport);
}

SiteId Site::id() const { return cluster_mgr_->local_id(); }

std::string Site::tag() const {
  SiteId sid = cluster_mgr_->local_id();
  return sid == kInvalidSite ? "site-?" : "site-" + std::to_string(sid);
}

void Site::bootstrap() {
  std::lock_guard lock(mu_);
  cluster_mgr_->bootstrap();
  security_mgr_->set_local_site(cluster_mgr_->local_id());
  attraction_memory_->on_membership_change();
  bootstrap_tick();
  // A freshly bootstrapped site may be a cold restart: its state store
  // can hold programs the (dead) previous cluster never finished.
  crash_mgr_->on_cluster_entered();
}

void Site::join(const std::string& contact_address) {
  std::lock_guard lock(mu_);
  cluster_mgr_->join(contact_address, [this](Status st) {
    if (!st.is_ok()) {
      SDVM_ERROR(tag()) << "join failed: " << st.to_string();
      return;
    }
    security_mgr_->set_local_site(cluster_mgr_->local_id());
    SDVM_INFO(tag()) << "joined cluster as site "
                     << cluster_mgr_->local_id();
    attraction_memory_->on_membership_change();
    bootstrap_tick();
    crash_mgr_->on_cluster_entered();
    // "The first action of the new site will be to request ... work."
    check_starvation();
  });
}

bool Site::joined() const {
  // Pollers (TcpNode::join_cluster) race the engine thread assigning the
  // id, so this read must take the site lock like every other accessor.
  std::lock_guard lock(mu_);
  return cluster_mgr_->joined();
}

Result<SiteId> Site::sign_off() {
  std::lock_guard lock(mu_);
  if (signed_off_ || leaving_to_.has_value()) {
    return Status::error(ErrorCode::kFailedPrecondition, "already signed off");
  }
  leaving_to_ = cluster_mgr_->pick_any_other().value_or(kInvalidSite);
  const SiteId successor = *leaving_to_;
  finish_sign_off();
  return successor;
}

void Site::finish_sign_off() {
  if (!leaving_to_.has_value() || !processing_mgr_->idle()) return;
  const SiteId successor = *std::exchange(leaving_to_, std::nullopt);
  if (successor != kInvalidSite) {
    // "All microframes and the local part of the global memory have to be
    // relocated to other sites before shutdown."
    attraction_memory_->relocate_all_to(successor);
    cluster_mgr_->announce_sign_off(successor);
  }
  signed_off_ = true;
  SDVM_INFO(tag()) << "signed off"
                   << (successor != kInvalidSite
                           ? ", successor site " + std::to_string(successor)
                           : " (last site)");
}

void Site::on_network_data(std::vector<std::byte> bytes) {
  {
    std::lock_guard lock(inbox_mu_);
    inbox_.push_back(std::move(bytes));
  }
  driver_.request_wakeup(0);
}

Nanos Site::pump() {
  std::deque<std::vector<std::byte>> batch;
  {
    std::lock_guard lock(inbox_mu_);
    batch.swap(inbox_);
  }

  std::lock_guard lock(mu_);
  for (auto& raw : batch) {
    if (signed_off_) {
      // In-flight state (results, frames, objects) addressed here races
      // the sign-off announcement; relay it to the successor instead of
      // stranding the frames we just relocated there.
      if (config_.test_drop_departed_forwarding) continue;  // seeded bug
      message_mgr_->on_raw_departed(raw);
      continue;
    }
    message_mgr_->on_raw(raw);
  }

  // Run due timers (a timer callback may schedule new timers).
  Nanos now = clock_.now();
  while (!timers_.empty() && timers_.top().due <= now) {
    auto fn = std::move(const_cast<Timer&>(timers_.top()).fn);
    timers_.pop();
    if (fn) fn();
    now = clock_.now();
  }

  if (!signed_off_) {
    // One microthread segment per pump; in sim mode its virtual cost marks
    // the site busy (on wall clock the cost is 0).
    if (now >= sim_busy_until_) {
      Nanos cost = processing_mgr_->execute_once(!leaving_to_.has_value());
      if (cost >= 0) {
        sim_busy_until_ = now + cost;
        // Pump again the moment the segment completes, so the next one
        // starts back-to-back.
        driver_.request_wakeup(cost);
      }
    }
    finish_sign_off();
    check_starvation();
  }

  if (timers_.empty()) return -1;
  return std::max<Nanos>(0, timers_.top().due - clock_.now());
}

void Site::schedule_after(Nanos delay, std::function<void()> fn) {
  timers_.push(Timer{clock_.now() + delay, ++timer_seq_, std::move(fn)});
  driver_.request_wakeup(delay);
}

bool Site::execution_quiesced() const {
  if (processing_mgr_->running() > 0) return false;
  if (driver_.simulated() && sim_busy_until_ >= clock_.now()) return false;
  return true;
}

void Site::sim_charge(Nanos cost) {
  if (!driver_.simulated() || cost <= 0) return;
  Nanos now = clock_.now();
  sim_busy_until_ = std::max(sim_busy_until_, now) + cost;
}

SiteStatus Site::introspect() {
  std::lock_guard lock(mu_);
  SiteStatus s;
  s.id = id();
  s.name = config_.name;
  s.platform = config_.platform;
  s.speed = config_.speed;
  s.joined = cluster_mgr_->joined();
  s.signed_off = signed_off_;
  s.code_site = config_.code_distribution_site;
  s.cluster_size = static_cast<std::uint32_t>(cluster_mgr_->cluster_size());
  s.load = site_mgr_->collect_load();
  s.active_programs = program_mgr_->active_programs();
  s.ledger = processing_mgr_->accounting();
  s.metrics = metrics_.snapshot();
  return s;
}

Result<ProgramId> Site::start_program(const ProgramSpec& spec) {
  std::lock_guard lock(mu_);
  if (!cluster_mgr_->joined()) {
    return Status::error(ErrorCode::kFailedPrecondition,
                         "site has not joined a cluster");
  }
  return program_mgr_->start_program(spec);
}

void Site::dispatch(const SdMessage& msg) {
  switch (msg.dst_mgr) {
    case ManagerId::kCluster:          cluster_mgr_->handle(msg); break;
    case ManagerId::kProgram:          program_mgr_->handle(msg); break;
    case ManagerId::kCode:             code_mgr_->handle(msg); break;
    case ManagerId::kAttractionMemory: attraction_memory_->handle(msg); break;
    case ManagerId::kScheduling:       scheduling_mgr_->handle(msg); break;
    case ManagerId::kIo:               io_mgr_->handle(msg); break;
    case ManagerId::kSite:             site_mgr_->handle(msg); break;
    case ManagerId::kCrash:            crash_mgr_->handle(msg); break;
    default:
      SDVM_WARN(tag()) << "message for unexpected manager "
                       << to_string(msg.dst_mgr) << " (" << to_string(msg.type)
                       << ")";
  }
}

void Site::drop_program_everywhere(ProgramId pid) {
  scheduling_mgr_->drop_program(pid);
  attraction_memory_->drop_program(pid);
  code_mgr_->drop_program(pid);
  io_mgr_->drop_program(pid);
  crash_mgr_->drop_program(pid);
}

void Site::on_site_dead(SiteId dead) {
  message_mgr_->fail_pending_to(dead);
  crash_mgr_->on_site_dead(dead);
  // Shard leases held by the dead site need a successor election.
  attraction_memory_->on_membership_change();
}

void Site::check_starvation() {
  if (signed_off_ || leaving_to_.has_value() || !cluster_mgr_->joined()) {
    return;
  }
  if (scheduling_mgr_->frozen()) return;
  if (scheduling_mgr_->queued_total() > 0) return;
  if (!processing_mgr_->idle()) return;
  if (!program_mgr_->has_active() &&
      cluster_mgr_->cluster_size() <= 1) {
    return;  // nothing anywhere to ask for
  }
  scheduling_mgr_->on_starving();
}

// Re-arms the periodic maintenance tick. Split out so join() and the tick
// itself can both arm it.
void Site::bootstrap_tick() {
  if (tick_scheduled_ || signed_off_) return;
  tick_scheduled_ = true;
  schedule_after(config_.heartbeat_interval, [this] {
    tick_scheduled_ = false;
    cluster_mgr_->on_tick();
    crash_mgr_->on_tick();
    attraction_memory_->shard_tick();
    check_starvation();
    bootstrap_tick();
  });
}

}  // namespace sdvm
