// EngineDriver: the wall-clock Driver of the threads and TCP modes. One
// engine thread per site pumps it whenever a timer falls due, input
// arrives or work becomes ready. (The simulator drives its sites from the
// event loop instead.)
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

  void request_wakeup(Nanos delay) override {
    (void)delay;  // the engine recomputes its sleep from Site::pump()
    cv_.notify_all();
  }
  void notify_work() override { cv_.notify_all(); }

  /// Starts the engine thread pumping `site`, which must outlive it.
  void start(Site& site);
  /// Stops and joins the engine thread: the site is not pumped again.
  /// Idempotent.
  void stop();

 private:
  std::mutex m_;
  std::condition_variable cv_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace sdvm
