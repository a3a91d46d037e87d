// Site manager (paper §4): "focuses on the local site ... collects
// performance data about the local site, e.g. the workload, memory load,
// number of executable microframes in the queue, the number of programs
// the local site works on" and answers status queries about all local
// managers.
#pragma once

#include <functional>
#include <string>

#include "runtime/cluster_info.hpp"
#include "runtime/message.hpp"
#include "runtime/site_status.hpp"

namespace sdvm {

class Site;

class SiteManager {
 public:
  explicit SiteManager(Site& site) : site_(site) {}

  /// Snapshot of the local load for gossip piggybacking.
  [[nodiscard]] LoadStats collect_load() const;

  /// Cluster-wide introspection: fans a kMetricsQuery out to every live
  /// peer, collects SiteStatus replies, and fires `done` with the sorted
  /// aggregate — on the last reply or at `timeout` (whichever is first;
  /// late sites land in ClusterStatus::unreachable). Call under the site
  /// lock; `done` runs under the site lock too.
  using ClusterStatusCallback = std::function<void(ClusterStatus)>;
  void query_cluster_status(ClusterStatusCallback done, Nanos timeout);

  void handle(const SdMessage& msg);

 private:
  Site& site_;
};

}  // namespace sdvm
