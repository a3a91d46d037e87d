// EngineDriver: the wall-clock Driver of the threads and TCP modes. One
// engine thread per site pumps it whenever a timer falls due, input
// arrives or work becomes ready, and so runs every microthread fiber of
// the site. (The simulator drives its sites from the event loop instead.)
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "runtime/driver.hpp"

namespace sdvm {

class Site;

class EngineDriver final : public Driver {
 public:
  EngineDriver() = default;
  ~EngineDriver() override { stop(); }

  EngineDriver(const EngineDriver&) = delete;
  EngineDriver& operator=(const EngineDriver&) = delete;

  /// Pumps again as soon as the current pump returns (or at once); the
  /// engine recomputes its sleep from Site::pump(), so `delay` is unused.
  void request_wakeup(Nanos /*delay*/) override {
    {
      std::lock_guard lk(m_);
      pending_ = true;
    }
    cv_.notify_one();
  }

  /// Starts the engine thread pumping `site`, which must outlive it.
  void start(Site& site);
  /// Stops and joins the engine thread: the site is not pumped again, and
  /// its parked microthreads are unwound on the way out. Idempotent.
  void stop();

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool pending_ = false;  // guarded by m_
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace sdvm
