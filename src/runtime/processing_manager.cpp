#include "runtime/processing_manager.hpp"

#include <algorithm>
#include <chrono>

#include "runtime/exec_context.hpp"
#include "runtime/fiber.hpp"
#include "runtime/site.hpp"

namespace sdvm {

namespace {

struct BodyResult {
  Status status;
  std::uint64_t cycles = 0;
  /// Wall nanos inside the VM dispatch loop (0 for native bodies).
  Nanos vm_ns = 0;
  /// Wall nanos of the whole body.
  Nanos elapsed = 0;
};

Nanos since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

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
  return {result.status, result.cycles, since(started)};
}

}  // namespace

struct ProcessingManager::Executor {
  Executor(Site& site, ReadyWork work, const ProgramInfo& info)
      : ctx(site, std::move(work.frame), info),
        exec(std::move(work.exec)),
        fiber([this] {
          auto started = std::chrono::steady_clock::now();
          result = run_body(exec, ctx);
          result.elapsed = since(started);
        }) {}

  ExecContext ctx;
  Executable exec;
  BodyResult result;
  Fiber fiber;
  ParkCell* cell = nullptr;  // what the microthread is parked on
  // Sim mode: work already charged by earlier segments.
  std::uint64_t billed_cycles = 0;
  std::int64_t billed_charge = 0;
};

std::size_t ProcessingManager::ParkCell::signal(Status st) {
  done = true;
  status = std::move(st);
  const std::size_t woken = parked_.size();
  if (woken == 0) return 0;
  for (Executor* e : parked_) {
    e->cell = nullptr;
    owner_->runnable_.push_back(e);
  }
  parked_.clear();
  owner_->site_.driver().request_wakeup(0);
  return woken;
}

ProcessingManager::ProcessingManager(Site& site) : site_(site) {}

ProcessingManager::~ProcessingManager() { halt(); }

void ProcessingManager::register_metrics(metrics::MetricsRegistry& registry) {
  registry.register_counter("proc.executed", &executed_);
  registry.register_counter("proc.trapped", &trapped_);
  registry.register_histogram("proc.runtime_ns", &runtime_ns_);
  registry.register_histogram("proc.vm_dispatch_ns", &vm_dispatch_ns_);
  registry.register_gauge("proc.running", [this] {
    return static_cast<std::int64_t>(running());
  });
}

Nanos ProcessingManager::execute_once(bool start_new) {
  if (!runnable_.empty()) {
    Executor* e = runnable_.front();
    runnable_.pop_front();
    return run_segment(*e);
  }
  if (!start_new || frozen_ || halted_) return -1;
  if (running() >= std::max(site_.config().executor_slots, 1)) return -1;
  auto work = site_.scheduling().take_ready();
  if (!work.has_value()) return -1;
  const ProgramInfo* pi = site_.programs().find(work->frame.program);
  if (pi == nullptr) return 1;  // consumed a stale frame: negligible cost

  Executor& e = *executors_.emplace_back(
      std::make_unique<Executor>(site_, std::move(*work), *pi));
  site_.trace(FrameEvent::kExecutionStarted, e.ctx.frame().id,
              e.ctx.frame().thread);
  return run_segment(e);
}

Nanos ProcessingManager::run_segment(Executor& e) {
  const bool sim = site_.driver().simulated();
  // Sim mode: results leave when the segment virtually completes.
  if (sim) site_.messages().set_defer(&e.ctx.deferred);
  current_ = &e;
  const bool finished = e.fiber.resume();
  current_ = nullptr;
  if (sim) site_.messages().set_defer(nullptr);

  if (finished) account(e);
  Nanos cost = sim ? release_segment(e, finished) : 0;
  if (finished) {
    std::erase_if(executors_, [&e](const auto& p) { return p.get() == &e; });
  }
  return cost;
}

Status ProcessingManager::park(ParkCell& cell) {
  Executor* self = current_;
  if (self == nullptr) {
    return Status::error(ErrorCode::kFailedPrecondition,
                         "park outside a microthread");
  }
  if (!cell.done && !halted_) {
    cell.owner_ = this;
    cell.parked_.push_back(self);
    self->cell = &cell;
    self->fiber.yield();
    current_ = self;
  }
  if (halted_) {
    return Status::error(ErrorCode::kUnavailable, "site stopped");
  }
  return cell.status;
}

bool ProcessingManager::yield() {
  Executor* self = current_;
  if (self == nullptr || halted_) return !halted_;
  runnable_.push_back(self);
  self->fiber.yield();
  current_ = self;
  return !halted_;
}

void ProcessingManager::halt() {
  halted_ = true;
  runnable_.clear();
  for (auto& e : executors_) {
    if (e->cell != nullptr) std::erase(e->cell->parked_, e.get());
    e->cell = nullptr;
    // park() and yield() now fail at once: the body unwinds and ends.
    current_ = e.get();
    (void)e->fiber.resume();
  }
  current_ = nullptr;
  executors_.clear();
}

void ProcessingManager::account(Executor& e) {
  const BodyResult& r = e.result;
  ExecContext& ctx = e.ctx;
  ++executed_;
  runtime_ns_.record(r.elapsed);
  if (r.vm_ns > 0) vm_dispatch_ns_.record(r.vm_ns);
  AccountEntry& acct = ledger_[ctx.program()];
  acct.microthreads += 1;
  acct.vm_instructions += r.cycles;
  acct.charged_cycles += static_cast<std::uint64_t>(ctx.charged_cycles());
  site_.trace(FrameEvent::kConsumed, ctx.frame().id, ctx.frame().thread);
  if (!r.status.is_ok()) {
    ++trapped_;
    SDVM_WARN(site_.tag()) << "microthread failed: " << r.status.to_string();
  }
}

Nanos ProcessingManager::release_segment(Executor& e, bool finished) {
  ExecContext& ctx = e.ctx;
  // A parked bytecode microthread has run as far as its last load/store.
  const std::uint64_t cycles_so_far =
      finished ? e.result.cycles : ctx.steps_at_call;
  const std::uint64_t cycles = cycles_so_far - e.billed_cycles;
  const std::int64_t charged = ctx.charged_cycles() - e.billed_charge;
  e.billed_cycles = cycles_so_far;
  e.billed_charge = ctx.charged_cycles();

  double speed = std::max(site_.config().speed, 1e-6);
  Nanos compute = static_cast<Nanos>(
      (static_cast<double>(cycles) * site_.config().sim_nanos_per_instr +
       static_cast<double>(charged)) /
      speed);
  Nanos cost = std::max<Nanos>(compute, 1);

  // Results leave the site when the segment (virtually) completes (paper
  // §3.2 step 4: "send the results").
  if (!ctx.deferred.empty()) {
    auto msgs = std::make_shared<std::vector<SdMessage>>(
        std::exchange(ctx.deferred, {}));
    site_.schedule_after(cost, [this, msgs] {
      // One burst: the transport groups by destination and coalesces.
      (void)site_.messages().send_burst(std::move(*msgs));
    });
  }
  return cost;
}

}  // namespace sdvm
