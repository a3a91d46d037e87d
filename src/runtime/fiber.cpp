#include "runtime/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
#define SDVM_FIBER_ASAN 1
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__) || __has_feature(thread_sanitizer)
#define SDVM_FIBER_TSAN 1
#include <sanitizer/tsan_interface.h>
#endif

namespace sdvm {

namespace {

std::atomic<std::uint64_t> g_stacks_allocated{0};
const std::size_t kGuard = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));

/// This thread's idle stacks, unmapped when the thread exits.
struct StackPool {
  std::vector<void*> free;

  ~StackPool() {
    for (void* s : free) {
      munmap(static_cast<char*>(s) - kGuard, Fiber::kStackSize + kGuard);
    }
  }

  void* take() {
    if (!free.empty()) {
      void* s = free.back();
      free.pop_back();
#ifdef SDVM_FIBER_ASAN
      // The last body's final frames never returned: clear their poison.
      ASAN_UNPOISON_MEMORY_REGION(s, Fiber::kStackSize);
#endif
      return s;
    }
    void* base = mmap(nullptr, Fiber::kStackSize + kGuard,
                      PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                      -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
    if (mprotect(base, kGuard, PROT_NONE) != 0) {
      munmap(base, Fiber::kStackSize + kGuard);
      throw std::bad_alloc();
    }
    g_stacks_allocated.fetch_add(1, std::memory_order_relaxed);
    return static_cast<char*>(base) + kGuard;
  }
};

thread_local StackPool t_pool;

}  // namespace

std::uint64_t Fiber::stacks_allocated() {
  return g_stacks_allocated.load(std::memory_order_relaxed);
}

Fiber::Fiber(std::function<void()> body)
    : body_(std::move(body)), stack_(t_pool.take()) {
  getcontext(&context_);
  context_.uc_stack.ss_sp = stack_;
  context_.uc_stack.ss_size = kStackSize;
  context_.uc_link = nullptr;
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  // makecontext passes int arguments: hand the pointer over in halves.
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::entry), 2,
              static_cast<unsigned>(self & 0xFFFFFFFFu),
              static_cast<unsigned>(self >> 32));
#ifdef SDVM_FIBER_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  // Destroyed unstarted or finished: nothing lives on the stack any more.
  if (stack_ != nullptr) t_pool.free.push_back(stack_);
#ifdef SDVM_FIBER_TSAN
  __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::entry(unsigned lo, unsigned hi) {
  auto* self = reinterpret_cast<Fiber*>(
      (static_cast<std::uintptr_t>(hi) << 32) | lo);
#ifdef SDVM_FIBER_ASAN
  __sanitizer_finish_switch_fiber(nullptr, &self->caller_bottom_,
                                  &self->caller_size_);
#endif
  self->body_();
  self->finished_ = true;
  self->switch_to(/*to_fiber=*/false, /*exiting=*/true);
  std::abort();  // a finished fiber is never resumed
}

bool Fiber::resume() {
  switch_to(/*to_fiber=*/true);
  if (finished_ && stack_ != nullptr) {
    t_pool.free.push_back(stack_);
    stack_ = nullptr;
  }
  return finished_;
}

void Fiber::yield() { switch_to(/*to_fiber=*/false); }

void Fiber::switch_to(bool to_fiber, bool exiting) {
#ifdef SDVM_FIBER_TSAN
  if (to_fiber) tsan_caller_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(to_fiber ? tsan_fiber_ : tsan_caller_, 0);
#endif
#ifdef SDVM_FIBER_ASAN
  // Leaving the fiber saves its fake stack (none on its final exit);
  // leaving the caller saves the caller's in `fake`.
  void* fake = nullptr;
  __sanitizer_start_switch_fiber(
      to_fiber ? &fake : (exiting ? nullptr : &fake_stack_),
      to_fiber ? stack_ : caller_bottom_, to_fiber ? kStackSize : caller_size_);
#endif
  if (to_fiber) {
    swapcontext(&caller_, &context_);
  } else {
    swapcontext(&context_, &caller_);
  }
#ifdef SDVM_FIBER_ASAN
  if (to_fiber) {
    __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
  } else {
    __sanitizer_finish_switch_fiber(fake_stack_, &caller_bottom_,
                                    &caller_size_);
  }
#else
  (void)exiting;
#endif
}

}  // namespace sdvm
