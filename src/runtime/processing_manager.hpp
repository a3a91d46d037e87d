// Processing manager (paper §4): executes microthreads. "If it is idle, it
// requests a pair of an executable microframe and its corresponding
// microthread from the scheduling manager." Latency hiding: up to
// `executor_slots` microthreads run in (virtual) parallel — the paper
// found "a number of about 5 ... produce good results".
//
// In threaded modes the slots are real worker threads; a microthread that
// blocks on remote memory parks its worker while the others keep running.
// In sim mode the event loop serializes execution: one microthread per
// site at a time, with virtual-time cost accounting. Both run the same
// execute_once(); sim mode only adds the virtual cost at the end.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "runtime/accounting.hpp"
#include "runtime/code_manager.hpp"
#include "runtime/frame.hpp"
#include "runtime/metrics.hpp"

namespace sdvm {

class ExecContext;
class Site;

class ProcessingManager {
 public:
  explicit ProcessingManager(Site& site) : site_(site) {}
  ~ProcessingManager() { stop(); }

  /// Threaded modes: spins up the worker pool.
  void start_workers(int slots);
  void stop();

  /// New ready work may be available — wake an idle worker.
  void kick();

  /// Takes one ready microframe, runs its microthread and accounts the
  /// result: the one execution path of every deployment mode. Workers
  /// call it in threaded modes; Site::pump() calls it under the site lock
  /// in sim mode. Returns -1 if no work was available, otherwise the
  /// virtual cost in sim mode (0 in threaded modes).
  Nanos execute_once();

  [[nodiscard]] int running() const {
    return running_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool idle() const { return running() == 0; }

  void set_frozen(bool frozen) { frozen_.store(frozen); }
  [[nodiscard]] bool frozen() const { return frozen_.load(); }

  /// Registers this manager's instruments ("proc." prefix).
  void register_metrics(metrics::MetricsRegistry& registry);

  /// Microthreads executed here (the "proc.executed" counter).
  [[nodiscard]] std::uint64_t executed() const { return executed_.value(); }

  /// Per-program contribution ledger (guarded by the site lock).
  [[nodiscard]] const AccountLedger& accounting() const { return ledger_; }

 private:
  void worker_loop();
  /// Sim mode's cost hook: the virtual cost of the finished microthread
  /// (cycles, charged cycles, site speed, memory stalls). Its deferred
  /// results leave the site in one burst once that cost has elapsed.
  Nanos complete_virtually(ExecContext& ctx, std::uint64_t cycles);

  Site& site_;
  std::vector<std::thread> workers_;
  std::mutex worker_mu_;
  std::condition_variable worker_cv_;
  bool stopping_ = false;
  std::atomic<int> running_{0};
  std::atomic<bool> frozen_{false};
  AccountLedger ledger_;

  // Instruments, guarded by the site lock; read "proc.*" through
  // Site::introspect().
  metrics::Counter executed_;
  metrics::Counter trapped_;
  /// Microthread body runtime in wall nanos, in every mode.
  metrics::Histogram runtime_ns_;
  /// Wall nanos spent inside the VM dispatch loop for bytecode
  /// microthreads: the interpreter-overhead component of runtime_ns_, so
  /// bench/overhead_sequential can attribute MicroC-vs-native overhead to
  /// the VM rather than SDVM machinery.
  metrics::Histogram vm_dispatch_ns_;
};

}  // namespace sdvm
