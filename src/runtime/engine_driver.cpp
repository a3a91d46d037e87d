#include "runtime/engine_driver.hpp"

#include <algorithm>
#include <chrono>

#include "runtime/site.hpp"

namespace sdvm {

void EngineDriver::start(Site& site) {
  thread_ = std::thread([this, &site] {
    while (!stopping_.load()) {
      {
        std::lock_guard lk(m_);
        pending_ = false;
      }
      Nanos next = site.pump();
      // Sleep until the next due timer or notification; wake at least
      // every 2 ms as a safety net.
      Nanos sleep = next < 0 ? 2'000'000 : std::min<Nanos>(next, 2'000'000);
      std::unique_lock lk(m_);
      cv_.wait_for(lk,
                   std::chrono::nanoseconds(std::max<Nanos>(sleep, 10'000)),
                   [this] { return pending_ || stopping_.load(); });
    }
    // The fibers live on this thread: unwind the parked ones here.
    std::lock_guard lk(site.lock());
    site.processing().halt();
  });
}

void EngineDriver::stop() {
  {
    std::lock_guard lk(m_);
    stopping_.store(true);
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

}  // namespace sdvm
