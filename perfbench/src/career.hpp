// Frame-career recorder for the traced run. One FrameTraceHook per site
// stamps (event, frame, steady clock, site clock) into a buffer
// preallocated for that site: the hook runs under the site lock, so it
// never allocates and never touches another site's buffer. After each
// traced program the benchmark drains the buffers (taking each site lock
// briefly) and folds the stamps into per-stage durations of the paper's
// Figure 5 career:
//
//   param_wait   created -> executable        (waiting for parameters)
//   code_resolve executable -> ready          (code fetch / compile)
//   queue_wait   ready -> executing           (ready queue)
//   exec         executing -> consumed        (microthread run)
//   migration    given-away -> adopted        (help reply in flight)
//
// Every stage is kept on two clocks: the steady wall clock, and each
// site's own clock, which is virtual time in the simulator (and the same
// steady clock in threads and TCP modes).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "api/cluster.hpp"
#include "common.hpp"
#include "runtime/trace.hpp"

namespace perfbench {

class CareerRecorder {
 public:
  /// `capacity` stamps are reserved per site; stamps beyond it are counted
  /// as dropped rather than stored.
  explicit CareerRecorder(std::size_t capacity) : capacity_(capacity) {}

  /// Registers site `index` of `cluster`; `site` is that same site, whose
  /// lock guards the buffer while it is drained. No hook is installed
  /// until set_enabled(true).
  void attach(sdvm::Cluster& cluster, std::size_t index, sdvm::Site& site);

  /// Installs the stamping hook on every attached site, or an empty hook
  /// (tracing off, zero cost) when `on` is false.
  void set_enabled(bool on);

  /// Moves every stamp out of the site buffers and folds it into the
  /// stage samples.
  void drain();

  struct Stages {
    Samples param_wait_s, code_resolve_s, queue_wait_s, exec_s, migration_s;
  };
  Stages on_wall;  // steady clock
  Stages on_site;  // each site's clock (virtual time in the simulator)

  /// Reports the wall-clock stage p50/p99 as frame.<stage>_p50_s / _p99_s
  /// and migrations per program as frame.migrations; the migration
  /// latencies, and with `virtual_clock` the virtual-time stages, go to the
  /// record's info block.
  void report(Report& r, std::uint64_t programs, bool virtual_clock) const;

 private:
  struct Stamp {
    std::uint64_t frame;
    sdvm::Nanos wall;
    sdvm::Nanos site;
    sdvm::FrameEvent event;
  };
  struct SiteBuffer {
    sdvm::Cluster* cluster = nullptr;
    std::size_t index = 0;
    sdvm::Site* site = nullptr;
    std::vector<Stamp> stamps;
    std::uint64_t dropped = 0;
  };

  void fold(const std::vector<std::vector<Stamp>>& per_site,
            sdvm::Nanos Stamp::*clock, Stages& into);
  [[nodiscard]] std::uint64_t dropped() const;

  std::size_t capacity_;
  std::vector<std::unique_ptr<SiteBuffer>> buffers_;
};

}  // namespace perfbench
