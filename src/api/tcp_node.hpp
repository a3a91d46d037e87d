// TcpNode: one SDVM daemon on a real TCP socket — the paper's deployment
// unit. Start one per machine (or per process for local experiments), give
// later ones the address of any running node, and they form a cluster.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "api/cluster.hpp"
#include "net/faulty.hpp"
#include "net/tcp.hpp"
#include "runtime/engine_driver.hpp"
#include "runtime/site.hpp"

namespace sdvm {

class TcpNode final : public Cluster {
 public:
  struct Options {
    SiteConfig site;
    std::uint16_t port = 0;  // 0 = ephemeral
    /// Resilience knobs: connect timeout, retry budget, backoff, queue
    /// bound, unreachable cooldown.
    net::TcpTransport::Options transport;
    /// When set, the transport is wrapped in a seeded FaultyTransport
    /// (drop/delay/sever by peer and message kind) — the chaos harness's
    /// fault vocabulary against real sockets.
    std::optional<net::FaultyTransport::Options> faults;
  };

  /// Creates the daemon and starts listening. Call bootstrap() or
  /// join_cluster() next.
  static Result<std::unique_ptr<TcpNode>> create(Options options);

  ~TcpNode() override;
  TcpNode(const TcpNode&) = delete;
  TcpNode& operator=(const TcpNode&) = delete;

  void bootstrap();
  /// Joins via "host:port" of a running node; blocks until joined or the
  /// timeout (wall nanos) expires. The sign-on is retried with backoff for
  /// the whole deadline (the transport reconnects underneath); on failure
  /// the error distinguishes "connection refused" from "timed out".
  Status join_cluster(const std::string& contact, Nanos timeout);

  [[nodiscard]] Site& site() { return *site_; }
  [[nodiscard]] std::string address() const;
  /// The underlying TCP transport (stats / peer health), never null after
  /// create(). When fault injection is active this is the *inner*
  /// transport; faulty_transport() exposes the decorator.
  [[nodiscard]] net::TcpTransport& tcp_transport() { return *tcp_; }
  /// The fault-injection decorator, or nullptr when faults are off.
  [[nodiscard]] net::FaultyTransport* faulty_transport() { return faulty_; }

  /// A TcpNode hosts exactly one site; home_index must be 0.
  Result<ProgramId> start_program(const ProgramSpec& spec,
                                  std::size_t home_index = 0) override;
  Result<std::int64_t> wait_program(ProgramId pid, Nanos timeout = -1);

  // --- observability facade (the Cluster interface) -----------------------
  // A TcpNode hosts exactly one site, so only index 0 is valid; peers are
  // reachable through cluster_status().

  [[nodiscard]] std::size_t size() const override { return 1; }

  /// Cluster facade: alias for wait_program (wall-clock mode).
  Result<std::int64_t> run(ProgramId pid, Nanos limit = -1) override {
    return wait_program(pid, limit);
  }

  /// Unified snapshot of the local site (Site::introspect()).
  [[nodiscard]] Result<SiteStatus> status(std::size_t index = 0) override;

  /// Cluster-wide aggregated snapshot queried through the local site
  /// (kMetricsQuery fan-out over TCP). Blocks up to `timeout` wall nanos.
  [[nodiscard]] Result<ClusterStatus> cluster_status(
      std::size_t via_index = 0, Nanos timeout = 2'000'000'000) override;

  /// Installs a frame-career trace hook on the local site.
  Status install_trace_hook(std::size_t index, FrameTraceHook hook) override;

  /// Graceful leave + engine shutdown.
  void shutdown();

 private:
  TcpNode();

  EngineDriver engine_;  // declared first: outlives the site it pumps
  std::unique_ptr<Site> site_;
  net::TcpTransport* tcp_ = nullptr;        // owned via site transport chain
  net::FaultyTransport* faulty_ = nullptr;  // ditto (nullptr = no faults)
  std::atomic<bool> stopped_{false};
};

}  // namespace sdvm
