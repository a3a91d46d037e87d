// Stack-machine interpreter for compiled MicroC. The processing manager
// executes bytecode microthreads through this VM; SDVM operations (spawn,
// send, memory access, I/O) are delegated to an IntrinsicHandler the
// runtime implements. The VM counts executed wire instructions, which
// doubles as the virtual-cycle cost model in sim mode (superinstruction
// fusion does not change the count — see DInst::cost).
//
// Execution runs over the verified pre-decoded form (decode.hpp): the
// decoder proves all slots/indices/jumps/stack depths safe once, so the
// hot loop does no per-step validation. Dispatch is computed-goto direct
// threading (GCC/Clang, which the build requires): each instruction ends
// by jumping straight to the next handler, giving the branch predictor one
// indirect-branch site per opcode instead of a single shared dispatch
// branch. `run_legacy`, the original byte-walking checked interpreter, is
// kept as the reference the decoded VM is tested and benchmarked against.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "microc/bytecode.hpp"
#include "microc/decode.hpp"

namespace sdvm::microc {

/// Bridge from MicroC intrinsics to the SDVM runtime. Values are int64;
/// global addresses travel as their 64-bit representation.
class IntrinsicHandler {
 public:
  virtual ~IntrinsicHandler() = default;

  virtual std::int64_t param(std::int64_t index) = 0;
  virtual std::int64_t num_params() = 0;
  virtual std::int64_t spawn(const std::string& thread_name,
                             std::int64_t nparams) = 0;
  /// spawn with a scheduling-hint priority; default forwards to spawn.
  virtual std::int64_t spawn_prio(const std::string& thread_name,
                                  std::int64_t nparams,
                                  std::int64_t priority) {
    (void)priority;
    return spawn(thread_name, nparams);
  }
  virtual void send(std::int64_t frame_addr, std::int64_t slot,
                    std::int64_t value) = 0;
  virtual std::int64_t alloc(std::int64_t nwords) = 0;
  virtual std::int64_t load(std::int64_t addr, std::int64_t index) = 0;
  virtual void store(std::int64_t addr, std::int64_t index,
                     std::int64_t value) = 0;
  virtual void out(std::int64_t value) = 0;
  virtual void out_str(const std::string& text) = 0;
  virtual void charge(std::int64_t cycles) = 0;
  virtual std::int64_t self_site() = 0;
  virtual std::int64_t arg(std::int64_t index) = 0;
  virtual std::int64_t num_args() = 0;
  virtual void exit_program(std::int64_t code) = 0;
  /// The VM ran another Vm::kSliceSteps instructions: a handler that
  /// shares its thread with other work may yield here.
  virtual void slice_done() {}

  /// Instructions the VM had executed when it last called load() or
  /// store(), the calls that may park the microthread: a parking handler
  /// bills the work done so far from it.
  std::uint64_t steps_at_call = 0;
};

/// Intrinsic handlers may throw this to abort the running microthread
/// (e.g. a failed remote memory fetch); the VM converts it into an error
/// VmResult instead of unwinding through the interpreter loop.
class IntrinsicError : public std::runtime_error {
 public:
  explicit IntrinsicError(const std::string& what)
      : std::runtime_error(what) {}
};

struct VmResult {
  Status status;
  /// Wire instructions executed — the microthread's intrinsic compute cost.
  std::uint64_t cycles = 0;
};

class Vm {
 public:
  /// Upper bound on executed instructions; microthreads are "short code
  /// fragments", so a runaway loop is a program bug we trap.
  static constexpr std::uint64_t kDefaultStepLimit = 500'000'000;
  /// Instructions between IntrinsicHandler::slice_done() calls.
  static constexpr std::uint64_t kSliceSteps = 1 << 20;

  /// Decodes (verifying) then runs `program`. Invalid bytecode yields an
  /// error result, never UB. Convenience path for tests and tools; the
  /// runtime caches the decoded form in its Executable instead.
  [[nodiscard]] static VmResult run(const Program& program,
                                    IntrinsicHandler& handler,
                                    std::uint64_t step_limit =
                                        kDefaultStepLimit);

  /// Runs a pre-decoded program. `program` supplies the string pool and
  /// name; `decoded` must have been produced from it.
  [[nodiscard]] static VmResult run(const DecodedProgram& decoded,
                                    const Program& program,
                                    IntrinsicHandler& handler,
                                    std::uint64_t step_limit =
                                        kDefaultStepLimit);

  /// The original checked byte-walking interpreter (the pre-refactor VM):
  /// the reference for golden-corpus equivalence and the baseline of
  /// bench/overhead_sequential.
  [[nodiscard]] static VmResult run_legacy(const Program& program,
                                           IntrinsicHandler& handler,
                                           std::uint64_t step_limit =
                                               kDefaultStepLimit);
};

}  // namespace sdvm::microc
