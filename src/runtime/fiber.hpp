// Fiber: a stackful coroutine on glibc makecontext/swapcontext. The
// processing manager runs every microthread on one, on the thread that
// pumps its site, so a microthread waiting for a remote reply parks its
// fiber instead of an OS thread (paper §4: microthreads run in *virtual*
// parallel to hide memory latency).
//
// Stacks are fixed-size mmap regions with a guard page below them. They
// come from a per-thread free list and go back to it as soon as the body
// returns, so only fibers parked mid-body hold a stack. A fiber must be
// resumed on the thread that created it, and must not yield from inside a
// catch handler (the C++ runtime keeps its caught-exception stack per
// thread).
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <functional>

namespace sdvm {

class Fiber {
 public:
  /// Usable stack bytes of every fiber (a guard page sits below them).
  static constexpr std::size_t kStackSize = 256 * 1024;

  explicit Fiber(std::function<void()> body);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Runs the body until it yields or returns. Returns true once it has
  /// returned; its stack is back on the free list by then.
  bool resume();
  /// Called from inside the body: switches back to the resume() caller.
  void yield();

  /// Stacks mapped so far, by all threads: free-list misses only.
  [[nodiscard]] static std::uint64_t stacks_allocated();

 private:
  static void entry(unsigned lo, unsigned hi);
  /// Switches into the fiber or back out to its caller, telling the
  /// sanitizers which stack runs next. `exiting` marks the final switch out.
  void switch_to(bool to_fiber, bool exiting = false);

  std::function<void()> body_;
  ucontext_t context_{};
  ucontext_t caller_{};
  void* stack_ = nullptr;  // usable bottom, just above the guard page
  bool finished_ = false;

  // Sanitizer bookkeeping (unused in plain builds).
  void* fake_stack_ = nullptr;
  const void* caller_bottom_ = nullptr;
  std::size_t caller_size_ = 0;
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
};

}  // namespace sdvm
