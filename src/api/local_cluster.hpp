// LocalCluster: the "threads" deployment mode. Every site is a full SDVM
// daemon with its own engine thread, which runs all of the site's
// microthread fibers, connected over the in-process message fabric
// (optionally with modeled latency and faults). Wall-clock time; sites run
// in parallel.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "api/cluster.hpp"
#include "net/inproc.hpp"
#include "runtime/engine_driver.hpp"
#include "runtime/site.hpp"

namespace sdvm {

class LocalCluster final : public Cluster {
 public:
  struct Options {
    net::LinkModel link;       // default 0 latency: a fast intranet
    std::uint64_t seed = 1;

    Options() {}  // NOLINT: out-of-class default argument needs this
  };

  explicit LocalCluster(Options options = Options{});
  ~LocalCluster() override;

  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  /// Adds a site (first bootstraps, others join) and blocks until joined.
  Site& add_site(SiteConfig config);
  void add_sites(int n, const SiteConfig& base = {});

  [[nodiscard]] Site& site(std::size_t index) { return *entries_[index]->site; }
  [[nodiscard]] std::size_t size() const override { return entries_.size(); }

  Result<ProgramId> start_program(const ProgramSpec& spec,
                                  std::size_t home_index = 0) override;

  /// Blocks until the program terminates anywhere (timeout in wall nanos,
  /// <0 = forever). Returns the exit code.
  Result<std::int64_t> wait_program(ProgramId pid, Nanos timeout = -1);

  /// Cluster facade: alias for wait_program (wall-clock mode).
  Result<std::int64_t> run(ProgramId pid, Nanos limit = -1) override {
    return wait_program(pid, limit);
  }

  Result<SiteId> sign_off(std::size_t index);
  void kill(std::size_t index);

  [[nodiscard]] std::vector<std::string> outputs(std::size_t frontend_index,
                                                 ProgramId pid);
  [[nodiscard]] net::InProcNetwork& network() { return network_; }
  [[nodiscard]] Site* site_by_id(SiteId id);

  // --- observability facade (the Cluster interface) -----------------------

  /// Unified snapshot of one member site (Site::introspect()).
  [[nodiscard]] Result<SiteStatus> status(std::size_t index = 0) override;

  /// Cluster-wide aggregated snapshot, queried through the site at
  /// `via_index` (kMetricsQuery fan-out). Blocks up to `timeout` wall
  /// nanos; sites that do not answer in time land in `unreachable`.
  [[nodiscard]] Result<ClusterStatus> cluster_status(
      std::size_t via_index = 0, Nanos timeout = 2'000'000'000) override;

  /// Installs a frame-career trace hook on one site (runs under that
  /// site's lock).
  Status install_trace_hook(std::size_t index, FrameTraceHook hook) override;

 private:
  struct Entry {
    EngineDriver engine;  // declared first: outlives the site it pumps
    std::unique_ptr<net::InProcEndpoint> endpoint;
    std::unique_ptr<Site> site;
    bool killed = false;
  };

  Options options_;
  std::vector<std::unique_ptr<Entry>> entries_;
  // Declared after entries_, so it is destroyed first: its destructor joins
  // the delayed-delivery thread while every receiving site is still alive.
  net::InProcNetwork network_;
};

}  // namespace sdvm
