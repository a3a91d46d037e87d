// Driver: the seam between a Site (the daemon) and whatever is driving it —
// an engine thread per site (threads/tcp modes) or the discrete-event
// simulator (sim mode). The Site never sleeps or spins itself; it asks the
// driver to pump it again later.
#pragma once

#include "common/types.hpp"

namespace sdvm {

class Driver {
 public:
  virtual ~Driver() = default;

  /// Guarantees Site::pump() runs within `delay` from now: a due timer, or
  /// (delay 0) new inbox data or freshly ready work.
  virtual void request_wakeup(Nanos delay) = 0;

  /// True when time is virtual. Execution is the same in every mode (one
  /// thread runs all of a site's microthread fibers); sim mode only
  /// charges each segment's virtual cost and holds its messages until it
  /// virtually completes.
  [[nodiscard]] virtual bool simulated() const { return false; }
};

}  // namespace sdvm
