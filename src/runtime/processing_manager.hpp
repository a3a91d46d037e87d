// Processing manager (paper §4): executes microthreads. "If it is idle, it
// requests a pair of an executable microframe and its corresponding
// microthread from the scheduling manager." Latency hiding: up to
// `executor_slots` microthreads run in (virtual) parallel — the paper
// found "a number of about 5 ... produce good results".
//
// Every microthread runs on its own fiber, on the one thread that pumps the
// site: the engine thread in the threads and TCP modes, the event loop in
// sim mode. A microthread that misses on remote memory or a rerouted file
// parks its fiber on a ParkCell; the pump resumes it once the reply has
// been dispatched, and meanwhile starts or resumes the others. In sim mode
// each run of a fiber up to its park or its end is one segment: its cycles
// are charged as virtual time, and its buffered messages (a fetch request
// among them) leave the site when that time has elapsed.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "runtime/accounting.hpp"
#include "runtime/metrics.hpp"

namespace sdvm {

class Site;

class ProcessingManager {
 public:
  /// One microthread on its fiber (defined in processing_manager.cpp).
  struct Executor;

  /// Completion cell a microthread parks on while a remote reply is in
  /// flight (object fetch, rerouted file access). The manager that sent
  /// the request signals it from the pump; every microthread parked on
  /// the cell becomes runnable again, in signal order.
  struct ParkCell {
    bool done = false;
    Status status;

    /// Completes the cell; returns how many parked microthreads it woke.
    std::size_t signal(Status st);

   private:
    friend class ProcessingManager;
    ProcessingManager* owner_ = nullptr;
    std::vector<Executor*> parked_;
  };

  explicit ProcessingManager(Site& site);
  ~ProcessingManager();

  /// Runs one segment: resumes the microthread whose reply landed first,
  /// or else (when `start_new`, a slot is free and the manager is not
  /// frozen) starts the next ready microframe on a fresh fiber. The
  /// segment ends when the microthread finishes or parks. Called by
  /// Site::pump() under the site lock: the one execution path of every
  /// deployment mode. Returns -1 if nothing ran, otherwise the segment's
  /// virtual cost in sim mode (0 on wall clock).
  Nanos execute_once(bool start_new = true);

  /// From inside a running microthread: parks its fiber until `cell` is
  /// signalled, then returns the cell's status (kUnavailable if the site
  /// was halted meanwhile).
  Status park(ParkCell& cell);

  /// From inside a running microthread on wall clock: lets the pump run
  /// (input, timers, other microthreads) before going on. False once the
  /// site was halted.
  bool yield();

  /// The site stops for good (engine stopped, site killed or destroyed):
  /// fails every parked wait with kUnavailable, so each fiber unwinds
  /// through its intrinsic's error path and ends, and runs nothing more.
  void halt();

  /// Microthreads alive here: running, runnable or parked.
  [[nodiscard]] int running() const {
    return static_cast<int>(executors_.size());
  }
  [[nodiscard]] bool idle() const { return executors_.empty(); }

  /// Frozen (checkpoint quiescence): no new microthread starts; alive
  /// ones still run to completion.
  void set_frozen(bool frozen) { frozen_ = frozen; }

  /// Registers this manager's instruments ("proc." prefix).
  void register_metrics(metrics::MetricsRegistry& registry);

  /// Microthreads executed here (the "proc.executed" counter).
  [[nodiscard]] std::uint64_t executed() const { return executed_.value(); }

  /// Per-program contribution ledger (guarded by the site lock).
  [[nodiscard]] const AccountLedger& accounting() const { return ledger_; }

 private:
  Nanos run_segment(Executor& e);
  /// Accounts a finished microthread: counters, ledger, consumed trace.
  void account(Executor& e);
  /// Sim mode's cost hook: the virtual cost of the segment that just ran
  /// (cycles and charged cycles since the last park, over the site speed).
  /// The segment's deferred messages leave the site in one burst once
  /// that cost has elapsed.
  Nanos release_segment(Executor& e, bool finished);

  Site& site_;
  // Everything below is guarded by the site lock.
  std::vector<std::unique_ptr<Executor>> executors_;
  std::deque<Executor*> runnable_;
  Executor* current_ = nullptr;
  bool frozen_ = false;
  bool halted_ = false;
  AccountLedger ledger_;

  // Instruments; read "proc.*" through Site::introspect().
  metrics::Counter executed_;
  metrics::Counter trapped_;
  /// Microthread body runtime in wall nanos, in every mode (parked time
  /// included).
  metrics::Histogram runtime_ns_;
  /// Wall nanos spent inside the VM dispatch loop for bytecode
  /// microthreads: the interpreter-overhead component of runtime_ns_, so
  /// bench/overhead_sequential can attribute MicroC-vs-native overhead to
  /// the VM rather than SDVM machinery.
  metrics::Histogram vm_dispatch_ns_;
};

}  // namespace sdvm
