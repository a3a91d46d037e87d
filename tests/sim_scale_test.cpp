// Scale tests for the discrete-event simulator: memberships from the
// paper's handful of sites up to 1000, hierarchical (zoned) topologies,
// golden-trace determinism, and the Options/zone validation surface.
//
// The large memberships use the same scale profile as the chaos harness
// (ring heartbeats, delta gossip, calmer timers): full-mesh heartbeats
// and whole-list gossip are O(n²) per tick and exist to exercise the
// paper configuration, not 1000 sites.
#include <gtest/gtest.h>

#include <limits>

#include "test_util.hpp"

#include "api/program_builder.hpp"
#include "apps/primes.hpp"
#include "sim/sim_cluster.hpp"
#include "sim/topology.hpp"

namespace sdvm {
namespace {

using sim::SimCluster;
using sim::ZoneSpec;

ProgramSpec hello_program() {
  return ProgramBuilder("hello")
      .thread("entry", R"( out(42); exit(0); )")
      .entry("entry")
      .build();
}

/// Mirror of the chaos harness's large-membership profile.
SiteConfig scale_site_config(int sites) {
  SiteConfig cfg;
  if (sites > 64) {
    cfg.heartbeat_fanout = 4;
    cfg.gossip_delta = true;
    cfg.heartbeat_interval = 200'000'000;   // 200 ms
    cfg.failure_timeout = kNanosPerSecond;  // 5 missed rounds
    cfg.help_retry_interval = 250'000'000;  // 250 ms
  }
  return cfg;
}

class SimScaleTest : public ::testing::TestWithParam<int> {};

// Build an n-site membership, let the detector run a few virtual
// seconds, and check that it stays quiet and a program still runs: no
// site may be declared dead on an idle, healthy fabric of any size.
TEST_P(SimScaleTest, MembershipConvergesAndStaysQuiet) {
  const int sites = GetParam();
  SimCluster cluster;
  cluster.add_sites(sites, 1.0, scale_site_config(sites));
  ASSERT_EQ(cluster.size(), static_cast<std::size_t>(sites));

  cluster.loop().run_for(3 * kNanosPerSecond);

  // Sample the view from both ends and the middle rather than paying a
  // 1000-way introspection fan-out per size.
  for (std::size_t idx :
       {std::size_t{0}, static_cast<std::size_t>(sites) / 2,
        static_cast<std::size_t>(sites) - 1}) {
    auto status = cluster.status(idx);
    ASSERT_TRUE(status.is_ok()) << status.status().to_string();
    EXPECT_TRUE(status.value().joined) << "site " << idx;
    EXPECT_EQ(status.value().cluster_size, static_cast<std::uint32_t>(sites))
        << "site " << idx << " has a stale membership view";
  }

  auto pid = cluster.start_program(hello_program());
  ASSERT_TRUE(pid.is_ok()) << pid.status().to_string();
  auto code = cluster.run_program(pid.value(), 10 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_EQ(code.value(), 0);
  EXPECT_EQ(cluster.outputs(0, pid.value()),
            std::vector<std::string>{"42"});

  // The quiet-fabric half of the claim: nobody was ever declared dead.
  auto home = cluster.status(0);
  ASSERT_TRUE(home.is_ok());
  EXPECT_EQ(home.value().cluster_size, static_cast<std::uint32_t>(sites));
}

INSTANTIATE_TEST_SUITE_P(Memberships, SimScaleTest,
                         ::testing::Values(8, 64, 256, 1000),
                         ::testing::PrintToStringParamName());

TEST(SimZoneTest, RackTopologyPlacesAndRoutes) {
  SimCluster::Options opts;
  net::LinkModel intra;
  intra.latency = 20'000;  // 20 us in-rack
  intra.per_byte = 5;
  net::LinkModel up;
  up.latency = 200'000;  // 200 us to the core
  up.per_byte = 10;
  opts.zones = sim::make_rack_topology(4, 4, intra, up);

  SimCluster cluster(opts);
  ASSERT_TRUE(cluster.add_topology_sites(SiteConfig{}).is_ok());
  ASSERT_EQ(cluster.size(), 16u);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.zone_of(i), static_cast<int>(i / 4)) << "site " << i;
  }

  cluster.loop().run_for(3 * kNanosPerSecond);
  auto status = cluster.status(15);
  ASSERT_TRUE(status.is_ok());
  EXPECT_EQ(status.value().cluster_size, 16u);

  // Programs run across racks exactly as on a flat fabric.
  auto pid = cluster.start_program(hello_program());
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 10 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_EQ(code.value(), 0);
}

// --- golden-trace determinism -------------------------------------------

/// Paper-scale run folded into the event hash: build 4 sites, run the
/// hello program, idle a virtual second.
std::uint64_t paper_scale_hash(std::uint64_t seed) {
  SimCluster::Options opts;
  opts.seed = seed;
  // Jitter is what the seed drives; without it two seeds can coincide.
  opts.link.jitter = 50'000;
  SimCluster cluster(opts);
  cluster.enable_event_hash();
  cluster.add_sites(4);
  auto pid = cluster.start_program(hello_program());
  EXPECT_TRUE(pid.is_ok());
  if (pid.is_ok()) {
    (void)cluster.run_program(pid.value(), 10 * kNanosPerSecond);
  }
  cluster.loop().run_for(kNanosPerSecond);
  return cluster.event_hash();
}

TEST(SimDeterminismTest, PaperScaleGoldenTrace) {
  const std::uint64_t a = paper_scale_hash(7);
  const std::uint64_t b = paper_scale_hash(7);
  EXPECT_EQ(a, b) << "same seed must replay the identical event trace";
  const std::uint64_t c = paper_scale_hash(8);
  EXPECT_NE(a, c) << "seeds drive delivery jitter; traces must differ";
}

// --- golden pin ------------------------------------------------------------
//
// The determinism tests above compare a run with itself, so a change to
// the simulator's virtual behaviour would pass them. These values were
// recorded from the implementation and must not move: any refactor of the
// execution path, the event loop or the message layer has to reproduce
// them bit for bit.

/// What one fixed-seed Table 1 style run did in virtual time.
struct PrimesProbe {
  Nanos virtual_ns = 0;
  std::uint64_t executed = 0;  // sum of proc.executed over all sites
  std::uint64_t sent = 0;      // sum of msg.sent over all sites
};

PrimesProbe encrypted_primes_probe() {
  SimCluster::Options opts;
  opts.seed = 1;
  opts.link.jitter = 20'000;
  SimCluster cluster(opts);
  SiteConfig cfg;
  cfg.encrypt = true;
  cluster.add_sites(8, 1.0, cfg);
  apps::PrimesParams params;
  params.p = 100;
  params.width = 20;
  params.work_mult = 58'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  EXPECT_TRUE(pid.is_ok());
  PrimesProbe probe;
  if (!pid.is_ok()) return probe;
  const Nanos start = cluster.now();
  auto code = cluster.run_program(pid.value(), 100'000 * kNanosPerSecond);
  EXPECT_TRUE(code.is_ok()) << code.status().to_string();
  probe.virtual_ns = cluster.now() - start;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto st = cluster.status(i);
    EXPECT_TRUE(st.is_ok());
    if (!st.is_ok()) continue;
    probe.executed += st.value().metrics.counter("proc.executed");
    probe.sent += st.value().metrics.counter("msg.sent");
  }
  return probe;
}

TEST(SimGoldenPinTest, PaperScaleHash) {
  EXPECT_EQ(paper_scale_hash(7), 7532577355965255732ULL);
}

/// The large-membership profile (ring heartbeats, delta gossip) folded
/// into the event hash: build 96 sites, run the hello program, idle a
/// virtual second. The 4- and 8-site pins never leave the full mesh.
std::uint64_t scale_profile_hash() {
  SimCluster cluster;
  cluster.enable_event_hash();
  cluster.add_sites(96, 1.0, scale_site_config(96));
  auto pid = cluster.start_program(hello_program());
  EXPECT_TRUE(pid.is_ok());
  if (pid.is_ok()) {
    (void)cluster.run_program(pid.value(), 10 * kNanosPerSecond);
  }
  cluster.loop().run_for(kNanosPerSecond);
  return cluster.event_hash();
}

TEST(SimGoldenPinTest, ScaleProfileHash) {
  EXPECT_EQ(scale_profile_hash(), 16374703572469185576ULL);
}

TEST(SimGoldenPinTest, EncryptedPrimesProbe) {
  const PrimesProbe probe = encrypted_primes_probe();
  EXPECT_EQ(probe.virtual_ns, 4'903'593'148);
  EXPECT_EQ(probe.executed, 595u);
  EXPECT_EQ(probe.sent, 24'615u);
}

std::uint64_t zoned_hash(std::uint64_t seed) {
  SimCluster::Options opts;
  opts.seed = seed;
  net::LinkModel intra;
  intra.latency = 20'000;
  intra.per_byte = 5;
  net::LinkModel up;
  up.latency = 200'000;
  up.per_byte = 10;
  opts.zones = sim::make_rack_topology(8, 32, intra, up);
  SimCluster cluster(opts);
  cluster.enable_event_hash();
  EXPECT_TRUE(cluster.add_topology_sites(scale_site_config(256)).is_ok());
  cluster.loop().run_for(2 * kNanosPerSecond);
  return cluster.event_hash();
}

TEST(SimDeterminismTest, Zoned256GoldenTrace) {
  EXPECT_EQ(zoned_hash(11), zoned_hash(11))
      << "a zoned 256-site build+idle must be bit-for-bit repeatable";
}

// --- Options / zone validation -------------------------------------------

ZoneSpec zone(std::string name, std::string parent, int sites) {
  ZoneSpec z;
  z.name = std::move(name);
  z.parent = std::move(parent);
  z.sites = sites;
  return z;
}

TEST(SimOptionsTest, ValidatesZoneTopologies) {
  SimCluster::Options opts;
  opts.zones = {zone("core", "", 0), zone("rack0", "core", 2),
                zone("rack1", "core", 2)};
  EXPECT_TRUE(opts.validate().is_ok());

  opts.zones = {zone("", "", 2)};
  EXPECT_FALSE(opts.validate().is_ok()) << "empty zone name";

  opts.zones = {zone("a", "", 2), zone("a", "", 2)};
  EXPECT_FALSE(opts.validate().is_ok()) << "duplicate zone name";

  opts.zones = {zone("a", "nowhere", 2)};
  EXPECT_FALSE(opts.validate().is_ok()) << "unknown parent";

  opts.zones = {zone("a", "b", 2), zone("b", "a", 2)};
  EXPECT_FALSE(opts.validate().is_ok()) << "cyclic parent chain";

  opts.zones = {zone("a", "", 0)};
  EXPECT_FALSE(opts.validate().is_ok()) << "topology hosts zero sites";

  opts.zones = {zone("a", "", -3)};
  EXPECT_FALSE(opts.validate().is_ok()) << "negative site count";

  opts.zones = {zone("a", "", 2)};
  opts.zones[0].speed = 0.0;
  EXPECT_FALSE(opts.validate().is_ok()) << "non-positive speed factor";

  opts.zones = {zone("a", "", 2)};
  opts.zones[0].speed = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(opts.validate().is_ok()) << "NaN speed factor";

  opts.zones = {zone("a", "", 2)};
  opts.zones[0].local.loss = 1.5;
  EXPECT_FALSE(opts.validate().is_ok()) << "loss outside [0, 1)";
}

TEST(SimOptionsTest, ValidatesFlatLink) {
  SimCluster::Options opts;
  EXPECT_TRUE(opts.validate().is_ok());
  opts.link.loss = -0.1;
  EXPECT_FALSE(opts.validate().is_ok());
  opts.link.loss = 1.0;
  EXPECT_FALSE(opts.validate().is_ok());
}

}  // namespace
}  // namespace sdvm
