#include "runtime/processing_manager.hpp"

#include <chrono>

#include "runtime/exec_context.hpp"
#include "runtime/site.hpp"

namespace sdvm {

void ProcessingManager::register_metrics(metrics::MetricsRegistry& registry) {
  registry.register_counter("proc.executed", &executed_);
  registry.register_counter("proc.trapped", &trapped_);
  registry.register_histogram("proc.runtime_ns", &runtime_ns_);
  registry.register_histogram("proc.vm_dispatch_ns", &vm_dispatch_ns_);
  registry.register_gauge("proc.running", [this] {
    return static_cast<std::int64_t>(running());
  });
}

void ProcessingManager::start_workers(int slots) {
  std::lock_guard lk(worker_mu_);
  if (!workers_.empty()) return;
  stopping_ = false;
  for (int i = 0; i < std::max(slots, 1); ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ProcessingManager::stop() {
  {
    std::lock_guard lk(worker_mu_);
    stopping_ = true;
  }
  worker_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void ProcessingManager::kick() {
  worker_cv_.notify_all();
}

void ProcessingManager::worker_loop() {
  std::unique_lock lk(worker_mu_);
  while (!stopping_) {
    lk.unlock();
    bool did_work = execute_once() >= 0;
    lk.lock();
    if (!did_work && !stopping_) {
      // Nothing ready; sleep until kicked (bounded, as a safety net
      // against missed wakeups during shutdown races).
      worker_cv_.wait_for(lk, std::chrono::milliseconds(2));
    }
  }
}

namespace {

struct BodyResult {
  Status status;
  std::uint64_t cycles = 0;
  /// Wall nanos inside the VM dispatch loop (0 for native bodies).
  Nanos vm_ns = 0;
};

/// Runs the microthread body.
BodyResult run_body(const Executable& exec, ExecContext& ctx) {
  if (exec.native != nullptr) {
    try {
      exec.native(ctx);
      return {Status::ok(), 0, 0};
    } catch (const microc::IntrinsicError& e) {
      return {Status::error(ErrorCode::kInternal, e.what()), 0, 0};
    } catch (const std::exception& e) {
      return {Status::error(ErrorCode::kInternal,
                            std::string("native microthread threw: ") +
                                e.what()),
              0, 0};
    }
  }
  // The code manager pre-decoded and verified every bytecode artifact, so
  // the VM runs the direct-threaded unchecked loop.
  auto started = std::chrono::steady_clock::now();
  auto result = microc::Vm::run(*exec.decoded, *exec.bytecode, ctx);
  Nanos vm_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - started)
                    .count();
  return {result.status, result.cycles, vm_ns};
}

}  // namespace

Nanos ProcessingManager::execute_once() {
  const bool sim = site_.driver().simulated();
  std::unique_lock lk(site_.lock());
  if (frozen_.load()) return -1;
  auto work = site_.scheduling().take_ready();
  if (!work.has_value()) return -1;
  const ProgramInfo* pi = site_.programs().find(work->frame.program);
  if (pi == nullptr) return 1;  // consumed a stale frame: negligible cost

  ExecContext ctx(site_, std::move(work->frame), *pi);
  site_.trace(FrameEvent::kExecutionStarted, ctx.frame().id,
              ctx.frame().thread);
  // Sim mode: results leave when the microthread virtually completes.
  if (sim) site_.messages().set_defer(&ctx.deferred);
  running_.fetch_add(1, std::memory_order_relaxed);
  // The body runs outside the lock so worker threads overlap; in sim mode
  // the pump still holds the (recursive) site lock.
  lk.unlock();
  auto started = std::chrono::steady_clock::now();
  auto [status, cycles, vm_ns] = run_body(work->exec, ctx);
  Nanos elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - started)
                      .count();
  lk.lock();

  if (sim) site_.messages().set_defer(nullptr);
  running_.fetch_sub(1, std::memory_order_relaxed);
  ++executed_;
  runtime_ns_.record(elapsed);
  if (vm_ns > 0) vm_dispatch_ns_.record(vm_ns);
  AccountEntry& acct = ledger_[ctx.program()];
  acct.microthreads += 1;
  acct.vm_instructions += cycles;
  acct.charged_cycles += static_cast<std::uint64_t>(ctx.charged_cycles());
  site_.trace(FrameEvent::kConsumed, ctx.frame().id, ctx.frame().thread);
  if (!status.is_ok()) {
    ++trapped_;
    SDVM_WARN(site_.tag()) << "microthread failed: " << status.to_string();
  }
  if (sim) return complete_virtually(ctx, cycles);
  lk.unlock();
  site_.driver().notify_work();
  return 0;
}

Nanos ProcessingManager::complete_virtually(ExecContext& ctx,
                                            std::uint64_t cycles) {
  double speed = std::max(site_.config().speed, 1e-6);
  Nanos compute = static_cast<Nanos>(
      (static_cast<double>(cycles) * site_.config().sim_nanos_per_instr +
       static_cast<double>(ctx.charged_cycles())) /
      speed);
  Nanos stall = site_.memory().take_sim_stall();
  Nanos cost = std::max<Nanos>(compute + stall, 1);

  // Results leave the site when the microthread (virtually) completes
  // (paper §3.2 step 4: "send the results").
  if (!ctx.deferred.empty()) {
    auto msgs = std::make_shared<std::vector<SdMessage>>(
        std::move(ctx.deferred));
    site_.schedule_after(cost, [this, msgs] {
      // One burst: the transport groups by destination and coalesces.
      (void)site_.messages().send_burst(std::move(*msgs));
    });
  }
  return cost;
}

}  // namespace sdvm
