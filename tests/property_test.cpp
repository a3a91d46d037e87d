// Property-based sweeps over the full runtime (parameterized gtest):
//  - dataflow conservation: a frame fires exactly once, results are exact,
//    regardless of cluster size, latency, or seed;
//  - scheduler conservation under random help-request interleavings;
//  - determinism: identical sim configurations produce identical virtual
//    makespans and execution counts.
//  - introspection wire safety: randomized SiteStatus / MetricsSnapshot
//    values survive a serialize/deserialize round trip bit-exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "test_util.hpp"

#include "apps/fibonacci.hpp"
#include "apps/matmul.hpp"
#include "apps/primes.hpp"
#include "common/rng.hpp"
#include "runtime/site_status.hpp"
#include "sim/sim_cluster.hpp"

namespace sdvm {
namespace {

using sim::SimCluster;

// gtest names each case after the raw bytes of its parameter, so the struct
// must hold no padding: an `int` here left four uninitialized bytes that
// gave the same case a different name on every run.
struct TopologyCase {
  std::int64_t sites;
  Nanos latency;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<TopologyCase>);

class DataflowConservationTest
    : public ::testing::TestWithParam<TopologyCase> {};

TEST_P(DataflowConservationTest, FibExactUnderAnyTopology) {
  const auto& tc = GetParam();
  SimCluster::Options options;
  options.seed = tc.seed;
  options.link.latency = tc.latency;
  SimCluster cluster(options);
  SiteConfig cfg;
  cfg.help_retry_interval = 200'000;
  cluster.add_sites(static_cast<int>(tc.sites), 1.0, cfg);

  apps::FibParams params;
  params.n = 11;
  params.leaf_work = 300'000;
  auto pid = cluster.start_program(apps::make_fib_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 3000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();

  // Exactness: the recursive dataflow sums to fib(11) — any lost or
  // duplicated frame changes the result.
  auto out = cluster.outputs(0, pid.value());
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), std::to_string(apps::fib_reference(11)));

  // Conservation: every help frame given was received, none invented.
  std::uint64_t given = 0, received = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    given += testing_util::counter(cluster.site(i), "sched.help_frames_given");
    received +=
        testing_util::counter(cluster.site(i), "sched.help_frames_received");
  }
  EXPECT_EQ(given, received);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, DataflowConservationTest,
    ::testing::Values(TopologyCase{1, 0, 1}, TopologyCase{2, 100'000, 2},
                      TopologyCase{3, 1'000'000, 3},
                      TopologyCase{5, 100'000, 4},
                      TopologyCase{8, 500'000, 5},
                      TopologyCase{8, 5'000'000, 6},
                      TopologyCase{13, 100'000, 7}));

class PrimesConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(PrimesConservationTest, VerdictExactUnderRandomStealing) {
  int sites = 1 + GetParam() % 7;
  SimCluster::Options options;
  options.seed = static_cast<std::uint64_t>(GetParam()) * 977 + 13;
  options.link.latency = 50'000 * (1 + GetParam() % 5);
  SimCluster cluster(options);
  SiteConfig cfg;
  cfg.help_retry_interval = 100'000 * (1 + GetParam() % 3);
  cluster.add_sites(sites, 1.0, cfg);

  apps::PrimesParams params;
  params.p = 30;
  params.width = 4 + GetParam() % 9;
  params.work_mult = 3'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 3000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  testing_util::expect_primes_verdict(cluster.outputs(0, pid.value()), 30,
                                      params.width);

  // No site double-executed a frame: executions = 1 entry + per-round
  // (width tests + 1 merge + 1 round thread). Total candidates tested =
  // rounds * width; verdict >= 30 pins rounds exactly.
  std::uint64_t executed = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    executed += testing_util::counter(cluster.site(i), "proc.executed");
  }
  std::int64_t verdict = std::stoll(cluster.outputs(0, pid.value()).back());
  (void)verdict;
  // executions = 1 (entry) + rounds*(width+2) where the final merge is
  // counted too; rounds = (executed - 1) / (width + 2) must divide evenly.
  EXPECT_EQ((executed - 1) % (static_cast<std::uint64_t>(params.width) + 2),
            0u)
      << "execution count inconsistent with round structure — a frame was "
         "lost or duplicated";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrimesConservationTest,
                         ::testing::Range(0, 12));

class DeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismTest, IdenticalConfigIdenticalRun) {
  auto run_once = [&](std::uint64_t seed) {
    SimCluster::Options options;
    options.seed = seed;
    SimCluster cluster(options);
    cluster.add_sites(4);
    apps::PrimesParams params;
    params.p = 25;
    params.width = 8;
    params.work_mult = 5'000'000;
    auto pid = cluster.start_program(apps::make_primes_program(params));
    EXPECT_TRUE(pid.is_ok());
    auto code = cluster.run_program(pid.value(), 3000 * kNanosPerSecond);
    EXPECT_TRUE(code.is_ok());
    std::uint64_t executed = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      executed += testing_util::counter(cluster.site(i), "proc.executed");
    }
    return std::pair<Nanos, std::uint64_t>{cluster.now(), executed};
  };
  std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  auto first = run_once(seed);
  auto second = run_once(seed);
  EXPECT_EQ(first.first, second.first) << "virtual makespan not reproducible";
  EXPECT_EQ(first.second, second.second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest, ::testing::Range(1, 6));

class MatmulSweepTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(MatmulSweepTest, ChecksumExactForAllShapes) {
  auto [n, block_rows] = GetParam();
  SimCluster cluster;
  SiteConfig cfg;
  cfg.help_retry_interval = 50'000;
  cluster.add_sites(3, 1.0, cfg);
  apps::MatmulParams params;
  params.n = n;
  params.block_rows = block_rows;
  auto pid = cluster.start_program(apps::make_matmul_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 3000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();

  auto ref = apps::matmul_reference(n);
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    expected += ref[i] * (static_cast<std::int64_t>(i) % 13 + 1);
  }
  EXPECT_EQ(cluster.outputs(0, pid.value()).back(), std::to_string(expected));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulSweepTest,
    ::testing::Values(std::pair{4, 1}, std::pair{4, 4}, std::pair{7, 2},
                      std::pair{8, 3}, std::pair{12, 5}, std::pair{16, 4}));

metrics::MetricsSnapshot random_snapshot(Xoshiro256& rng) {
  metrics::MetricsSnapshot s;
  std::size_t n = rng.below(12);
  for (std::size_t i = 0; i < n; ++i) {
    std::string name = "m." + std::to_string(rng.below(64));
    switch (rng.below(3)) {
      case 0:
        s.add_counter(name, rng());
        break;
      case 1:
        s.add_gauge(name, static_cast<std::int64_t>(rng()));
        break;
      default: {
        metrics::Histogram h;
        std::size_t samples = rng.below(20);
        for (std::size_t k = 0; k < samples; ++k) {
          h.record(static_cast<Nanos>(rng.below(20'000'000'000)));
        }
        s.add_histogram(name, h);
      }
    }
  }
  return s;
}

class IntrospectionRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(IntrospectionRoundTripTest, MetricsSnapshotBitExact) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  for (int i = 0; i < 50; ++i) {
    metrics::MetricsSnapshot s = random_snapshot(rng);
    ByteWriter w;
    s.serialize(w);
    auto bytes = w.take();
    ByteReader r(bytes);
    auto back = metrics::MetricsSnapshot::deserialize(r);
    ASSERT_TRUE(back.is_ok()) << back.status().to_string();
    EXPECT_EQ(back.value(), s);
  }
}

TEST_P(IntrospectionRoundTripTest, SiteStatusSurvivesTheWire) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 1);
  for (int i = 0; i < 30; ++i) {
    SiteStatus s;
    s.id = static_cast<SiteId>(rng.below(1000));
    s.name = "site-" + std::to_string(rng.below(100));
    s.platform = rng.below(2) ? "x86-linux" : "arm-macos";
    s.speed = static_cast<double>(rng.below(100)) / 10.0;
    s.joined = rng.below(2) != 0;
    s.signed_off = rng.below(2) != 0;
    s.code_site = rng.below(2) != 0;
    s.cluster_size = static_cast<std::uint32_t>(rng.below(64));
    s.load.queued_frames = static_cast<std::uint32_t>(rng.below(1000));
    s.load.running = static_cast<std::uint32_t>(rng.below(16));
    s.load.programs = static_cast<std::uint32_t>(rng.below(8));
    s.load.executed_total = rng();
    std::size_t nprogs = rng.below(5);
    for (std::size_t k = 0; k < nprogs; ++k) {
      ProgramId pid(rng());
      s.active_programs.push_back(pid);
      s.ledger[pid] = AccountEntry{rng.below(100), rng.below(100000),
                                   rng.below(1000000)};
    }
    s.metrics = random_snapshot(rng);

    ByteWriter w;
    s.serialize(w);
    auto bytes = w.take();
    ByteReader r(bytes);
    auto back = SiteStatus::deserialize(r);
    ASSERT_TRUE(back.is_ok()) << back.status().to_string();
    const SiteStatus& b = back.value();
    EXPECT_EQ(b.id, s.id);
    EXPECT_EQ(b.name, s.name);
    EXPECT_EQ(b.platform, s.platform);
    EXPECT_DOUBLE_EQ(b.speed, s.speed);
    EXPECT_EQ(b.joined, s.joined);
    EXPECT_EQ(b.signed_off, s.signed_off);
    EXPECT_EQ(b.code_site, s.code_site);
    EXPECT_EQ(b.cluster_size, s.cluster_size);
    EXPECT_EQ(b.load.executed_total, s.load.executed_total);
    EXPECT_EQ(b.active_programs, s.active_programs);
    EXPECT_EQ(b.ledger.size(), s.ledger.size());
    for (const auto& [pid, e] : s.ledger) {
      ASSERT_EQ(b.ledger.count(pid), 1u);
      EXPECT_EQ(b.ledger.at(pid).charged_cycles, e.charged_cycles);
    }
    EXPECT_EQ(b.metrics, s.metrics);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntrospectionRoundTripTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace sdvm
