// SimCluster: a whole SDVM cluster under the discrete-event simulator.
// Each site runs the exact same manager and execution code as the
// threaded/TCP modes, fibers and fetch protocol included; only the clock
// (virtual), the transport (InProcNetwork routed through the event loop)
// and the cost accounting of each microthread segment differ. Used for
// Table 1 and every parameter-sweep bench.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unordered_map>

#include "api/cluster.hpp"
#include "net/inproc.hpp"
#include "runtime/site.hpp"
#include "sim/event_loop.hpp"
#include "sim/topology.hpp"

namespace sdvm::sim {

class SimCluster final : public Cluster {
 public:
  struct Options {
    std::uint64_t seed = 1;
    net::LinkModel link;  // default latency/bandwidth between all sites

    /// Hierarchical topology. When non-empty, add_topology_sites() places
    /// one site per hosted slot, wires zone-pair link models into the
    /// fabric, and applies each zone's speed factor; sites added outside
    /// the topology (or with zones empty) use `link`.
    std::vector<ZoneSpec> zones;

    /// Give every site a MemStateStore owned by the cluster, so committed
    /// checkpoint epochs survive kill()+restart() the way a --state-dir
    /// survives a real daemon crash.
    bool durable_state = false;
    /// Seeded disk-fault injection on those stores (torn writes, bit
    /// flips, dropped writes). Only meaningful with durable_state.
    FaultyStateStore::Options disk_faults;

    Options() {
      link.latency = 100'000;  // 100 us, intranet class
      link.per_byte = 10;      // ~100 MB/s
    }

    /// Rejects models the fabric cannot run: loss is a drop *probability*
    /// and must lie in [0, 1) — a loss of exactly 1 would silence every
    /// link and negative values are meaningless. With zones set, also
    /// rejects malformed topologies (empty/duplicate names, unknown
    /// parents, cyclic routes, non-positive speed factors, zero hosted
    /// sites) via validate_zones().
    [[nodiscard]] Status validate() const;
  };

  /// The constructor clamps an out-of-range loss into [0, 1) after logging
  /// (callers wanting an error instead should check validate() first).
  explicit SimCluster(Options options = Options{});
  ~SimCluster() override;

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  /// Adds a site. The first bootstraps the cluster; later ones sign on via
  /// an existing site (default: the first) and this call runs the loop
  /// until the join completes. `contact_index` picks which member the new
  /// site knows — paper §3.4: "the one site it already knows".
  Site& add_site(SiteConfig config, int contact_index = 0);

  /// Convenience: n identical sites of the given speed.
  void add_sites(int n, double speed = 1.0, const SiteConfig& base = {});

  /// Builds the fleet described by Options::zones: one site per hosted
  /// slot, zone link models in the fabric, per-zone speed factors applied
  /// on top of `base.speed`. Fails if the topology does not validate.
  Status add_topology_sites(const SiteConfig& base = {});

  /// Hosting-zone index of a slot (-1 when placed outside the topology).
  [[nodiscard]] int zone_of(std::size_t index) const {
    return entries_.at(index)->zone;
  }

  /// Starts folding every network send decision into a running FNV-1a
  /// hash: (virtual time, from, to, size, delivered) per event. Two runs
  /// with the same seed and schedule must agree byte-for-byte — the
  /// golden-trace determinism tests compare exactly this value.
  void enable_event_hash();
  [[nodiscard]] std::uint64_t event_hash() const { return event_hash_; }

  [[nodiscard]] Site& site(std::size_t index) { return *entries_[index]->site; }
  [[nodiscard]] std::size_t size() const override { return entries_.size(); }

  /// Starts a program on `home_index` and returns its id.
  Result<ProgramId> start_program(const ProgramSpec& spec,
                                  std::size_t home_index = 0) override;

  /// Runs until the program terminates (or virtual deadline, <0 = none).
  /// Returns the exit code.
  Result<std::int64_t> run_program(ProgramId pid, Nanos deadline = -1);

  /// Cluster facade: alias for run_program (virtual-time mode).
  Result<std::int64_t> run(ProgramId pid, Nanos limit = -1) override {
    return run_program(pid, limit);
  }

  /// Graceful departure of a site mid-run.
  Result<SiteId> sign_off(std::size_t index);
  /// Uncontrolled crash: the site stops pumping and its traffic black-holes.
  void kill(std::size_t index);
  /// Cold restart of a (killed) slot: a brand-new Site with the same
  /// config and the same state store — the simulated equivalent of
  /// restarting sdvmd with the same --state-dir. Joins through any live
  /// member, or bootstraps a fresh cluster if none is left.
  Site& restart(std::size_t index);

  /// The durable store behind a slot (null without durable_state /
  /// state-store attachment). Survives kill() and restart().
  [[nodiscard]] std::shared_ptr<StateStore> state_store(std::size_t index) {
    return entries_.at(index)->store;
  }
  /// Disk faults injected so far across all slots (durable_state mode).
  [[nodiscard]] std::uint64_t disk_faults_injected() const;

  /// Output lines collected at the program's frontend.
  [[nodiscard]] std::vector<std::string> outputs(std::size_t frontend_index,
                                                 ProgramId pid);

  [[nodiscard]] EventLoop& loop() { return loop_; }
  [[nodiscard]] net::InProcNetwork& network() { return network_; }
  [[nodiscard]] Nanos now() const { return loop_.now(); }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Looks a site up by logical id (dead sites included).
  [[nodiscard]] Site* site_by_id(SiteId id);

  // --- observability facade (the Cluster interface) -----------------------

  /// Unified snapshot of one member site (Site::introspect()).
  [[nodiscard]] Result<SiteStatus> status(std::size_t index = 0) override;

  /// Cluster-wide aggregated snapshot, queried through the site at
  /// `via_index` (kMetricsQuery fan-out). Runs the event loop up to
  /// `timeout` virtual nanos; sites that do not answer land in
  /// `unreachable`.
  [[nodiscard]] Result<ClusterStatus> cluster_status(
      std::size_t via_index = 0, Nanos timeout = 2'000'000'000) override;

  /// Installs a frame-career trace hook on one site.
  Status install_trace_hook(std::size_t index, FrameTraceHook hook) override;

 private:
  class SimDriver;

  Options options_;
  EventLoop loop_;
  net::InProcNetwork network_;
  /// Address -> slot index, so deliveries get tagged with the acted-on
  /// site for exploration mode. Covers retired incarnations too.
  std::unordered_map<std::string, std::uint32_t> slot_of_addr_;
  int pending_zone_ = -1;  // zone applied to the next wire_site()
  std::uint64_t event_hash_ = 1469598103934665603ULL;  // FNV-1a offset

  struct Entry {
    SiteConfig config;
    std::unique_ptr<SimDriver> driver;
    std::unique_ptr<net::InProcEndpoint> endpoint;
    std::unique_ptr<Site> site;
    bool killed = false;
    int zone = -1;  // hosting-zone index; survives restart()
    /// Owned here, not by the Site: survives restart().
    std::shared_ptr<StateStore> store;
    std::shared_ptr<FaultyStateStore> faulty;  // non-null when injecting
  };
  std::vector<std::unique_ptr<Entry>> entries_;

  void wire_site(Entry* e, std::size_t slot);
  std::uint64_t sites_wired_ = 0;  // Site incarnations created so far

  /// Dead incarnations are kept, not destroyed: queued event-loop
  /// callbacks and network deliveries still hold raw pointers into them.
  struct Retired {
    std::unique_ptr<SimDriver> driver;
    std::unique_ptr<net::InProcEndpoint> endpoint;
    std::unique_ptr<Site> site;
  };
  std::vector<Retired> retired_;
};

}  // namespace sdvm::sim
