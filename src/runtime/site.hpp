// Site: one SDVM daemon — the assembly of all managers (paper Figure 3)
// plus the plumbing between them (inbox, timers, the big site lock).
//
// Threading model:
//   * pump() is the single place work happens: it drains the inbox, runs
//     due timers, runs microthreads and triggers scheduling decisions. A
//     Driver decides when pump runs: the site's engine thread in the
//     threads and TCP modes, a simulator event in sim mode.
//   * One thread runs every microthread of the site, in every mode: each
//     on its own fiber inside pump(), up to `executor_slots` alive at once.
//     A microthread waiting for remote memory or a rerouted file parks its
//     fiber; pump() resumes it once the reply has been dispatched.
//   * `mu_` (recursive) guards all manager state. pump() and the public
//     entry points take it; microthreads run with it held, and
//     manager-internal code never locks.
//   * The inbox has its own mutex and is never held together with `mu_`,
//     so sites can send to each other without lock cycles.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <vector>

#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "net/transport.hpp"
#include "runtime/attraction_memory.hpp"
#include "runtime/cluster_manager.hpp"
#include "runtime/code_manager.hpp"
#include "runtime/crash_manager.hpp"
#include "runtime/driver.hpp"
#include "runtime/io_manager.hpp"
#include "runtime/message_manager.hpp"
#include "runtime/metrics.hpp"
#include "runtime/processing_manager.hpp"
#include "runtime/program_manager.hpp"
#include "runtime/scheduling_manager.hpp"
#include "runtime/security_manager.hpp"
#include "runtime/site_manager.hpp"
#include "runtime/site_status.hpp"
#include "runtime/trace.hpp"

namespace sdvm {

class Site {
 public:
  Site(SiteConfig config, Clock& clock, Driver& driver);

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  /// Attach the physical transport (must happen before bootstrap/join).
  void attach_transport(std::unique_ptr<net::Transport> transport);

  /// Attach a durable state store for checkpoint epochs (must happen
  /// before bootstrap/join). The constructor attaches a DirStateStore
  /// automatically when config.state_dir is set; the simulator attaches
  /// MemStateStores that survive simulated restarts.
  void attach_state_store(std::shared_ptr<StateStore> store) {
    state_store_ = std::move(store);
  }
  [[nodiscard]] std::shared_ptr<StateStore> state_store() const {
    return state_store_;
  }

  // --- lifecycle -----------------------------------------------------------
  /// Starts a brand-new cluster: this site becomes logical site 1.
  void bootstrap();
  /// Joins an existing cluster through `contact_address`. Asynchronous:
  /// poll joined() or use the mode wrappers' blocking join.
  void join(const std::string& contact_address);
  [[nodiscard]] bool joined() const;
  /// Graceful sign-off: relocates frames and memory to a successor, then
  /// announces departure. Returns the successor id. Microthreads parked
  /// here first finish (no new one starts), so the relocation may
  /// complete in a later pump.
  Result<SiteId> sign_off();
  [[nodiscard]] bool signed_off() const { return signed_off_; }

  // --- driving ---------------------------------------------------------------
  /// Thread-safe: enqueue raw wire bytes (transport receiver calls this).
  void on_network_data(std::vector<std::byte> bytes);
  /// Processes pending input, timers and work. Returns nanos until the
  /// next due timer, or -1 if none. Runs in the driver's context.
  Nanos pump();

  /// Schedules `fn` to run under the site lock after `delay`.
  void schedule_after(Nanos delay, std::function<void()> fn);

  /// Sim mode: account non-microthread work (e.g. on-the-fly compilation)
  /// as site busy time.
  void sim_charge(Nanos cost);
  [[nodiscard]] Nanos sim_busy_until() const { return sim_busy_until_; }

  /// True when no microthread is alive and (sim mode) all virtually
  /// in-flight results have left the site — the checkpoint quiescence test.
  [[nodiscard]] bool execution_quiesced() const;

  // --- program API (home-site entry) ------------------------------------------
  Result<ProgramId> start_program(const ProgramSpec& spec);

  // --- manager access ----------------------------------------------------------
  // --- introspection -----------------------------------------------------
  /// The unified status snapshot: identity + lifecycle + load + active
  /// programs + accounting ledger + every registered metric. Thread-safe
  /// (takes the site lock). This is THE way to observe a site.
  [[nodiscard]] SiteStatus introspect();

  /// The per-site instrument catalog (managers register at construction).
  [[nodiscard]] metrics::MetricsRegistry& metrics_registry() {
    return metrics_;
  }

  MessageManager& messages() { return *message_mgr_; }
  SecurityManager& security() { return *security_mgr_; }
  ClusterManager& cluster() { return *cluster_mgr_; }
  ProgramManager& programs() { return *program_mgr_; }
  CodeManager& code() { return *code_mgr_; }
  AttractionMemory& memory() { return *attraction_memory_; }
  SchedulingManager& scheduling() { return *scheduling_mgr_; }
  ProcessingManager& processing() { return *processing_mgr_; }
  IoManager& io() { return *io_mgr_; }
  SiteManager& site_manager() { return *site_mgr_; }
  CrashManager& crash() { return *crash_mgr_; }

  [[nodiscard]] const SiteConfig& config() const { return config_; }
  [[nodiscard]] Clock& clock() { return clock_; }
  [[nodiscard]] Driver& driver() { return driver_; }
  [[nodiscard]] net::Transport* transport() { return transport_.get(); }
  [[nodiscard]] SiteId id() const;
  [[nodiscard]] std::string tag() const;  // log tag "site-<id>"

  /// The big site lock. pump() and the public APIs lock it; recursive so
  /// a public entry point called from a timer or a microthread re-enters.
  [[nodiscard]] std::recursive_mutex& lock() { return mu_; }

  /// Dispatches a decoded message to the addressed manager. Called by the
  /// message manager under the site lock.
  void dispatch(const SdMessage& msg);

  /// Cluster-wide program teardown on this site (termination broadcast).
  void drop_program_everywhere(ProgramId pid);

  /// Failure-detector verdict propagation to all interested managers.
  void on_site_dead(SiteId dead);

  /// Execution-layer starvation check; issues help requests when starving.
  void check_starvation();

  /// Frame-career tracing (Figure 5). The hook runs under the site lock.
  void set_frame_trace(FrameTraceHook hook) { trace_ = std::move(hook); }
  void trace(FrameEvent event, FrameId frame, MicrothreadId thread) {
    if (trace_) trace_(event, frame, thread);
  }

 private:
  /// Arms the periodic maintenance tick (heartbeats, failure detection,
  /// gossip, checkpoints, starvation checks).
  void bootstrap_tick();
  /// Completes a pending sign-off once no microthread is alive here.
  void finish_sign_off();

  SiteConfig config_;
  Clock& clock_;
  Driver& driver_;
  std::unique_ptr<net::Transport> transport_;
  std::shared_ptr<StateStore> state_store_;

  mutable std::recursive_mutex mu_;

  std::mutex inbox_mu_;
  std::deque<std::vector<std::byte>> inbox_;

  struct Timer {
    Nanos due;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Timer& o) const {
      return std::tie(due, seq) > std::tie(o.due, o.seq);
    }
  };
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::uint64_t timer_seq_ = 0;

  Nanos sim_busy_until_ = 0;
  bool signed_off_ = false;
  // Set while a sign-off waits for alive microthreads (kInvalidSite: no
  // successor, the last site leaves).
  std::optional<SiteId> leaving_to_;
  bool tick_scheduled_ = false;
  FrameTraceHook trace_;

  // Declared before the managers: they register instrument pointers here
  // at construction, and members destroy in reverse order.
  metrics::MetricsRegistry metrics_;

  // Managers (construction order matters: see site.cpp).
  std::unique_ptr<SecurityManager> security_mgr_;
  std::unique_ptr<MessageManager> message_mgr_;
  std::unique_ptr<ClusterManager> cluster_mgr_;
  std::unique_ptr<ProgramManager> program_mgr_;
  std::unique_ptr<CodeManager> code_mgr_;
  std::unique_ptr<AttractionMemory> attraction_memory_;
  std::unique_ptr<SchedulingManager> scheduling_mgr_;
  std::unique_ptr<ProcessingManager> processing_mgr_;
  std::unique_ptr<IoManager> io_mgr_;
  std::unique_ptr<SiteManager> site_mgr_;
  std::unique_ptr<CrashManager> crash_mgr_;
};

}  // namespace sdvm
