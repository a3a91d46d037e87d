// ExecContext: the concrete Context bound to one microthread execution.
// Also implements the MicroC VM's IntrinsicHandler, so bytecode and native
// microthreads share identical semantics. Operations run on the site's
// pump thread with the site lock already held; blocking operations (remote
// memory, rerouted files) park the microthread's fiber until the reply is
// dispatched.
#pragma once

#include <vector>

#include "microc/vm.hpp"
#include "runtime/context.hpp"
#include "runtime/frame.hpp"
#include "runtime/message.hpp"
#include "runtime/program.hpp"

namespace sdvm {

class Site;

class ExecContext final : public Context, public microc::IntrinsicHandler {
 public:
  ExecContext(Site& site, Microframe frame, ProgramInfo info);

  // --- Context ---------------------------------------------------------
  int num_params() const override;
  std::int64_t param_int(int index) const override;
  std::span<const std::byte> param_bytes(int index) const override;
  int num_args() const override;
  std::int64_t arg(int index) const override;
  GlobalAddress spawn(std::string_view thread_name, int nparams,
                      int priority) override;
  void send_int(GlobalAddress frame, int slot, std::int64_t value) override;
  void send_bytes(GlobalAddress frame, int slot,
                  std::span<const std::byte> value) override;
  GlobalAddress alloc_global(std::int64_t nwords) override;
  std::int64_t mem_read(GlobalAddress addr, std::int64_t index) override;
  void mem_write(GlobalAddress addr, std::int64_t index,
                 std::int64_t value) override;
  void out(std::int64_t value) override;  // also the VM intrinsic
  void out_str(std::string_view text) override;
  std::string file_read(std::string_view path) override;
  void file_write(std::string_view path, std::string_view data) override;
  void exit_program(std::int64_t code) override;
  void charge(std::int64_t cycles) override;  // also the VM intrinsic
  SiteId site() const override;
  ProgramId program() const override { return info_.id; }

  // --- microc::IntrinsicHandler (delegating shims) ------------------------
  std::int64_t param(std::int64_t index) override {
    return param_int(static_cast<int>(index));
  }
  std::int64_t num_params() override {
    return std::as_const(*this).num_params();
  }
  std::int64_t spawn(const std::string& thread_name,
                     std::int64_t nparams) override {
    return static_cast<std::int64_t>(
        spawn(std::string_view{thread_name}, static_cast<int>(nparams), 0)
            .value);
  }
  std::int64_t spawn_prio(const std::string& thread_name,
                          std::int64_t nparams,
                          std::int64_t priority) override {
    return static_cast<std::int64_t>(
        spawn(std::string_view{thread_name}, static_cast<int>(nparams),
              static_cast<int>(priority))
            .value);
  }
  void send(std::int64_t frame, std::int64_t slot,
            std::int64_t value) override {
    send_int(GlobalAddress{static_cast<std::uint64_t>(frame)},
             static_cast<int>(slot), value);
  }
  std::int64_t alloc(std::int64_t nwords) override {
    return static_cast<std::int64_t>(alloc_global(nwords).value);
  }
  std::int64_t load(std::int64_t addr, std::int64_t index) override {
    return mem_read(GlobalAddress{static_cast<std::uint64_t>(addr)}, index);
  }
  void store(std::int64_t addr, std::int64_t index,
             std::int64_t value) override {
    mem_write(GlobalAddress{static_cast<std::uint64_t>(addr)}, index, value);
  }
  void out_str(const std::string& text) override {
    out_str(std::string_view{text});
  }
  std::int64_t self_site() override { return site(); }
  std::int64_t arg(std::int64_t index) override {
    return std::as_const(*this).arg(static_cast<int>(index));
  }
  std::int64_t num_args() override {
    return std::as_const(*this).num_args();
  }
  /// A long bytecode microthread lets its site's pump run (heartbeats,
  /// replies, other microthreads) once per VM slice on wall clock.
  void slice_done() override;

  /// Sim-mode outgoing messages, buffered until the running segment
  /// virtually completes.
  std::vector<SdMessage> deferred;

  [[nodiscard]] std::int64_t charged_cycles() const { return charged_; }
  [[nodiscard]] bool exit_requested() const { return exit_requested_; }
  [[nodiscard]] std::int64_t exit_code() const { return exit_code_; }
  [[nodiscard]] const Microframe& frame() const { return frame_; }
  [[nodiscard]] const ProgramInfo& info() const { return info_; }

 private:
  /// The word, attracted here (aborts the microthread if it cannot be).
  std::int64_t* word(GlobalAddress addr, std::int64_t index);

  Site& site_;
  Microframe frame_;
  ProgramInfo info_;
  std::int64_t charged_ = 0;
  bool exit_requested_ = false;
  std::int64_t exit_code_ = 0;
};

}  // namespace sdvm
