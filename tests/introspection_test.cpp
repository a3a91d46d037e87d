// The unified introspection API, end to end: Site::introspect(), the
// kMetricsQuery/kMetricsReply fan-out behind cluster_status(), and the
// observability facade shared by LocalCluster and SimCluster. The
// ThreeSiteClusterWideSnapshot case is the sdvm-top `--once` equivalent:
// run primes on a 3-site cluster, query site 0, and require non-zero
// counters from at least five distinct managers in both text and JSON.
#include <gtest/gtest.h>

#include <chrono>
#include <set>

#include "test_util.hpp"

#include "api/local_cluster.hpp"
#include "apps/primes.hpp"
#include "sim/sim_cluster.hpp"

namespace sdvm {
namespace {

constexpr Nanos kWaitLimit = 30 * kNanosPerSecond;

apps::PrimesParams small_primes() {
  apps::PrimesParams params;
  params.p = 20;
  params.width = 6;
  params.work_mult = 0;  // wall-clock modes: no virtual charge needed
  return params;
}

TEST(IntrospectionTest, ThreeSiteClusterWideSnapshot) {
  LocalCluster cluster;
  cluster.add_sites(3);
  auto pid = cluster.start_program(apps::make_primes_program(small_primes()));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.wait_program(pid.value(), kWaitLimit);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();

  auto cs = cluster.cluster_status(/*via_index=*/0);
  ASSERT_TRUE(cs.is_ok()) << cs.status().to_string();
  EXPECT_EQ(cs.value().sites.size(), 3u);
  EXPECT_TRUE(cs.value().unreachable.empty());
  for (const SiteStatus& s : cs.value().sites) {
    EXPECT_TRUE(s.joined);
    // Membership gossip may still be propagating on a freshly formed
    // cluster: every site knows at least itself + the contact site.
    EXPECT_GE(s.cluster_size, 2u);
    EXPECT_LE(s.cluster_size, 3u);
  }

  // Cluster-wide counters from >= 5 distinct managers must have moved.
  metrics::MetricsSnapshot agg = cs.value().aggregate();
  EXPECT_GT(agg.counter("sched.frames_enqueued"), 0u);   // scheduling
  EXPECT_GT(agg.counter("proc.executed"), 0u);           // processing
  EXPECT_GT(agg.counter("msg.sent"), 0u);                // messages
  EXPECT_GT(agg.counter("msg.bytes_sent"), 0u);
  EXPECT_GT(agg.counter("cluster.sites_admitted"), 0u);  // cluster
  EXPECT_GT(agg.counter("code.compiles"), 0u);           // code
  EXPECT_GT(agg.counter("mem.frames_created"), 0u);      // memory
  EXPECT_GT(agg.counter("io.outputs_delivered"), 0u);    // io

  // The per-message-type provider families travel with the snapshot.
  EXPECT_GT(agg.counter("msg.sent.sign-on-request"), 0u);

  // Both export forms carry the counters.
  std::string text = cs.value().to_text();
  EXPECT_NE(text.find("proc.executed"), std::string::npos);
  EXPECT_NE(text.find("aggregate:"), std::string::npos);
  std::string json = cs.value().to_json();
  EXPECT_NE(json.find("\"proc.executed\""), std::string::npos);
  EXPECT_NE(json.find("\"aggregate\""), std::string::npos);
  EXPECT_NE(json.find("\"queried_from\":"), std::string::npos);

  // The accounting ledger rides along: the program was billed somewhere.
  AccountLedger bill = cs.value().total_ledger();
  ASSERT_EQ(bill.count(pid.value()), 1u);
  EXPECT_GT(bill.at(pid.value()).microthreads, 0u);
}

TEST(IntrospectionTest, PerSiteStatusMatchesManagers) {
  LocalCluster cluster;
  cluster.add_sites(2);
  auto st = cluster.status(1);
  ASSERT_TRUE(st.is_ok()) << st.status().to_string();
  EXPECT_EQ(st.value().name, "site2");
  EXPECT_TRUE(st.value().joined);
  // introspect() and the facade agree (same underlying snapshot).
  SiteStatus direct = cluster.site(1).introspect();
  EXPECT_EQ(direct.id, st.value().id);
  EXPECT_EQ(direct.metrics.counter("cluster.signon_messages"),
            st.value().metrics.counter("cluster.signon_messages"));
}

TEST(IntrospectionTest, FacadeRejectsBadIndices) {
  LocalCluster cluster;
  cluster.add_sites(1);
  EXPECT_EQ(cluster.status(5).status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(cluster.cluster_status(5).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(cluster.install_trace_hook(5, nullptr).code(),
            ErrorCode::kInvalidArgument);

  sim::SimCluster sim;
  sim.add_sites(1);
  EXPECT_EQ(sim.status(3).status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(sim.cluster_status(3).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(sim.install_trace_hook(3, nullptr).code(),
            ErrorCode::kInvalidArgument);
}

TEST(IntrospectionTest, SimModeSameApiAndMetricCatalog) {
  // The facade works identically under the simulator, and the metric
  // catalog (registered names) is identical across deployment modes.
  sim::SimCluster sim;
  sim.add_sites(3);
  apps::PrimesParams params = small_primes();
  params.work_mult = 3'000'000;  // sim mode: give leaves virtual cost
  auto pid = sim.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = sim.run_program(pid.value(), 3000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();

  auto cs = sim.cluster_status(/*via_index=*/0);
  ASSERT_TRUE(cs.is_ok()) << cs.status().to_string();
  EXPECT_EQ(cs.value().sites.size(), 3u);
  metrics::MetricsSnapshot agg = cs.value().aggregate();
  EXPECT_GT(agg.counter("sched.frames_enqueued"), 0u);
  EXPECT_GT(agg.counter("proc.executed"), 0u);
  EXPECT_GT(agg.counter("msg.sent"), 0u);
  EXPECT_GT(agg.counter("cluster.sites_admitted"), 0u);
  EXPECT_GT(agg.counter("mem.frames_created"), 0u);

  // Static catalog parity: the registered names on a sim site equal the
  // registered names on a threads-mode site.
  LocalCluster threads;
  threads.add_sites(1);
  EXPECT_EQ(sim.site(0).metrics_registry().names(),
            threads.site(0).metrics_registry().names());
}

TEST(IntrospectionTest, SimRuntimeIsWallTime) {
  // proc.runtime_ns means wall nanos in every mode. A heavy work_mult
  // makes the virtual cost seconds while the simulated run itself takes
  // milliseconds, so the histogram must sum to at most the wall time.
  const auto started = std::chrono::steady_clock::now();
  sim::SimCluster sim;
  sim.add_sites(2);
  apps::PrimesParams params = small_primes();
  params.work_mult = 500'000'000;
  auto pid = sim.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = sim.run_program(pid.value(), 100'000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  std::uint64_t runtime_sum = 0;
  std::uint64_t executed = 0;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    auto st = sim.status(i);
    ASSERT_TRUE(st.is_ok());
    const metrics::MetricValue* h = st.value().metrics.find("proc.runtime_ns");
    ASSERT_NE(h, nullptr);
    runtime_sum += h->sum;
    executed += st.value().metrics.counter("proc.executed");
  }
  const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - started)
                        .count();
  EXPECT_GT(executed, 0u);
  EXPECT_LE(runtime_sum, static_cast<std::uint64_t>(wall));
}

TEST(IntrospectionTest, UnreachableSiteLandsInPartialResult) {
  LocalCluster cluster;
  cluster.add_sites(3);
  cluster.kill(2);
  // Query with a short timeout: the killed site cannot answer. Depending
  // on failure-detector progress it shows up as unreachable or is already
  // dropped from the membership view — either way the result is partial
  // and the two live sites answer.
  auto cs = cluster.cluster_status(/*via_index=*/0, kNanosPerSecond / 2);
  ASSERT_TRUE(cs.is_ok()) << cs.status().to_string();
  std::set<SiteId> reported;
  for (const auto& s : cs.value().sites) reported.insert(s.id);
  EXPECT_TRUE(reported.count(cluster.site(0).id()));
  EXPECT_TRUE(reported.count(cluster.site(1).id()));
  EXPECT_GE(cs.value().sites.size(), 2u);
  EXPECT_LE(cs.value().sites.size() + cs.value().unreachable.size(), 3u);
}

TEST(IntrospectionTest, TraceHookInstallsViaFacade) {
  sim::SimCluster sim;
  sim.add_sites(1);
  int events = 0;
  ASSERT_TRUE(sim.install_trace_hook(0, [&events](FrameEvent, FrameId,
                                                  MicrothreadId) {
                   ++events;
                 }).is_ok());
  apps::PrimesParams params = small_primes();
  params.work_mult = 3'000'000;
  auto pid = sim.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(sim.run_program(pid.value(), 3000 * kNanosPerSecond).is_ok());
  EXPECT_GT(events, 0);
}

}  // namespace
}  // namespace sdvm
