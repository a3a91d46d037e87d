// Tests for the deterministic chaos harness: fabric-level delivery
// determinism, schedule generation and JSON round-trips, invariant
// checking over real cluster runs, and ddmin shrinking of failing
// schedules down to replayable artifacts.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "test_util.hpp"

#include "chaos/harness.hpp"
#include "chaos/schedule.hpp"
#include "chaos/shrink.hpp"
#include "net/inproc.hpp"
#include "sim/sim_cluster.hpp"

namespace sdvm {
namespace {

using chaos::ChaosHarness;
using chaos::ChaosSchedule;
using chaos::EventKind;
using sim::SimCluster;

// ---------------------------------------------------------------------------
// SimCluster::Options validation (link loss must be a probability)
// ---------------------------------------------------------------------------

TEST(ChaosOptionsTest, LossValidationEdges) {
  SimCluster::Options opt;
  opt.link.loss = 0.0;  // lower edge: valid
  EXPECT_TRUE(opt.validate().is_ok());
  opt.link.loss = 0.999;
  EXPECT_TRUE(opt.validate().is_ok());
  opt.link.loss = 1.0;  // upper edge: a link that drops everything
  auto at_one = opt.validate();
  ASSERT_FALSE(at_one.is_ok());
  EXPECT_EQ(at_one.code(), ErrorCode::kInvalidArgument);
  opt.link.loss = -0.25;
  auto negative = opt.validate();
  ASSERT_FALSE(negative.is_ok());
  EXPECT_EQ(negative.code(), ErrorCode::kInvalidArgument);
}

TEST(ChaosOptionsTest, ConstructorClampsOutOfRangeLoss) {
  SimCluster::Options high;
  high.link.loss = 1.5;
  SimCluster clamped_high(high);
  EXPECT_LT(clamped_high.options().link.loss, 1.0);
  EXPECT_GE(clamped_high.options().link.loss, 0.0);

  SimCluster::Options low;
  low.link.loss = -3.0;
  SimCluster clamped_low(low);
  EXPECT_EQ(clamped_low.options().link.loss, 0.0);
}

// ---------------------------------------------------------------------------
// InProcNetwork: seeded loss/partition behaviour is deterministic
// ---------------------------------------------------------------------------

std::vector<std::string> delivery_trace(std::uint64_t seed) {
  net::InProcNetwork fabric(seed);
  net::LinkModel link;
  link.loss = 0.3;  // no latency: delivery is inline and single-threaded
  fabric.set_default_link(link);

  std::vector<std::string> trace;
  fabric.set_trace_hook([&trace](const std::string& from,
                                 const std::string& to, std::size_t bytes,
                                 bool delivered) {
    trace.push_back(from + ">" + to + ":" + std::to_string(bytes) +
                    (delivered ? ":ok" : ":drop"));
  });

  auto a = fabric.attach([](std::vector<std::byte>) {});
  auto b = fabric.attach([](std::vector<std::byte>) {});
  for (int i = 0; i < 100; ++i) {
    std::vector<std::byte> payload(static_cast<std::size_t>(i % 17 + 1));
    (void)a->send(b->local_address(), payload);
    if (i == 50) {
      fabric.partition({a->local_address()}, {b->local_address()});
    }
    if (i == 60) fabric.heal();
  }
  return trace;
}

TEST(ChaosNetworkTest, SameSeedSameDeliveryTrace) {
  auto first = delivery_trace(99);
  auto second = delivery_trace(99);
  EXPECT_EQ(first, second) << "loss decisions must be pure in the seed";
  ASSERT_EQ(first.size(), 100u);
  // The partition window must drop unconditionally.
  for (int i = 51; i <= 60; ++i) {
    EXPECT_TRUE(first[static_cast<std::size_t>(i)].ends_with(":drop"))
        << "message " << i << " crossed an active partition";
  }
}

TEST(ChaosNetworkTest, DifferentSeedsDiverge) {
  EXPECT_NE(delivery_trace(99), delivery_trace(100))
      << "distinct seeds should produce distinct loss patterns";
}

// ---------------------------------------------------------------------------
// Schedule generation and serialization
// ---------------------------------------------------------------------------

TEST(ChaosScheduleTest, GeneratorIsPureInSeed) {
  chaos::GeneratorOptions opts;
  opts.events = 20;
  ChaosSchedule a = chaos::generate_schedule(7, opts);
  ChaosSchedule b = chaos::generate_schedule(7, opts);
  EXPECT_EQ(a, b);
  ChaosSchedule c = chaos::generate_schedule(8, opts);
  EXPECT_NE(a, c);
  // Times strictly increase, so replayed subsets keep their order.
  for (std::size_t i = 1; i < a.events.size(); ++i) {
    EXPECT_GT(a.events[i].at, a.events[i - 1].at);
  }
}

TEST(ChaosScheduleTest, JsonRoundTrips) {
  chaos::GeneratorOptions opts;
  opts.events = 15;
  opts.loss_max = 0.4;  // cover the loss field too
  ChaosSchedule original = chaos::generate_schedule(21, opts);
  auto parsed = ChaosSchedule::from_json(original.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value(), original);
}

TEST(ChaosScheduleTest, ParserSkipsUnknownKeysAndRejectsGarbage) {
  auto parsed = ChaosSchedule::from_json(
      R"({"seed": 5, "extra": {"nested": [1, "x", true]},
          "events": [{"at": 10, "kind": "heal", "note": "why"}],
          "sites": 3})");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().seed, 5u);
  EXPECT_EQ(parsed.value().sites, 3);
  ASSERT_EQ(parsed.value().events.size(), 1u);
  EXPECT_EQ(parsed.value().events[0].kind, EventKind::kHeal);

  EXPECT_FALSE(ChaosSchedule::from_json("not json").is_ok());
  EXPECT_FALSE(
      ChaosSchedule::from_json(R"({"events": [{"kind": "volcano"}]})")
          .is_ok());
}

// ---------------------------------------------------------------------------
// Harness runs
// ---------------------------------------------------------------------------

TEST(ChaosHarnessTest, RunIsDeterministic) {
  chaos::GeneratorOptions opts;
  opts.sites = 3;
  opts.events = 6;
  ChaosSchedule schedule = chaos::generate_schedule(11, opts);
  chaos::RunReport first = ChaosHarness().run(schedule);
  chaos::RunReport second = ChaosHarness().run(schedule);
  EXPECT_EQ(first.trace, second.trace)
      << "same schedule must reproduce the identical virtual-time trace";
  EXPECT_EQ(first.passed, second.passed);
  EXPECT_EQ(first.exit_code, second.exit_code);
  for (std::size_t i = 0; i < first.violations.size(); ++i) {
    EXPECT_EQ(first.violations[i].to_line(), second.violations[i].to_line());
  }
}

TEST(ChaosHarnessTest, BenignChurnSweepPasses) {
  // The default profile (no loss, home protected, everything healed) must
  // hold every invariant: this is the CI smoke sweep in miniature.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ChaosSchedule schedule = chaos::generate_schedule(seed);
    chaos::RunReport report = ChaosHarness().run(schedule);
    std::string detail;
    for (const auto& v : report.violations) detail += v.to_line() + "\n";
    EXPECT_TRUE(report.passed)
        << "seed " << seed << " failed:\n" << detail;
  }
}

TEST(ChaosHarnessTest, CustomInvariantFires) {
  ChaosSchedule schedule;  // no fault events: plain run
  schedule.seed = 2;
  schedule.sites = 2;
  ChaosHarness harness;
  harness.add_invariant(
      "frame-books-balance",
      [](chaos::ChaosContext& ctx) -> std::optional<std::string> {
        std::uint64_t given = 0;
        std::uint64_t received = 0;
        for (std::size_t i = 0; i < ctx.cluster.size(); ++i) {
          if (!ctx.live(i)) continue;
          given += testing_util::counter(ctx.cluster.site(i),
                                         "sched.help_frames_given");
          received += testing_util::counter(ctx.cluster.site(i),
                                            "sched.help_frames_received");
        }
        if (given != received) {
          return "help frames given " + std::to_string(given) +
                 " != received " + std::to_string(received);
        }
        return std::nullopt;
      },
      /*quiescence_only=*/true);
  harness.add_invariant(
      "always-fails",
      [](chaos::ChaosContext&) -> std::optional<std::string> {
        return "intentional";
      },
      /*quiescence_only=*/true);
  chaos::RunReport report = harness.run(schedule);
  EXPECT_TRUE(report.terminated);
  ASSERT_FALSE(report.passed);
  bool saw_custom = false;
  for (const auto& v : report.violations) {
    EXPECT_NE(v.invariant, "frame-books-balance") << v.detail;
    saw_custom |= v.invariant == "always-fails";
  }
  EXPECT_TRUE(saw_custom);
}

TEST(ChaosHarnessTest, DurableSweepSurvivesHomeFaultsAndRestarts) {
  // Durability sweep in miniature: every site gets a crash-surviving state
  // store with disk faults injected, the home site is fair game, and
  // killed sites cold-restart mid-run. The durable invariants
  // (durable-epoch-monotone, durable-program-lost, program-home-live)
  // run alongside the standard suite.
  chaos::GeneratorOptions gen;
  gen.sites = 4;
  gen.events = 10;
  gen.allow_home_faults = true;
  gen.allow_restarts = true;

  chaos::HarnessOptions opts;
  opts.allow_home_faults = true;
  opts.durable_state = true;
  opts.disk_faults.torn_write = 0.05;
  opts.disk_faults.bit_flip = 0.05;

  bool saw_restart = false;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ChaosSchedule schedule = chaos::generate_schedule(seed, gen);
    for (const auto& ev : schedule.events) {
      saw_restart |= ev.kind == EventKind::kRestart;
    }
    chaos::RunReport report = ChaosHarness(opts).run(schedule);
    std::string detail;
    for (const auto& v : report.violations) detail += v.to_line() + "\n";
    for (const auto& line : report.trace) detail += line + "\n";
    EXPECT_TRUE(report.passed) << "seed " << seed << " failed:\n" << detail;
  }
  EXPECT_TRUE(saw_restart)
      << "no generated schedule exercised a cold restart";
}

TEST(ChaosScheduleTest, RestartEventsRoundTripAndOnlyReviveKilled) {
  chaos::GeneratorOptions gen;
  gen.sites = 4;
  gen.events = 30;
  gen.allow_home_faults = true;
  gen.allow_restarts = true;
  ChaosSchedule schedule = chaos::generate_schedule(42, gen);

  // Restarts only target sites a prior kill (not sign-off) took down.
  std::map<std::uint32_t, bool> killed;
  for (const auto& ev : schedule.events) {
    if (ev.kind == EventKind::kKill) killed[ev.target] = true;
    if (ev.kind == EventKind::kSignOff) killed[ev.target] = false;
    if (ev.kind == EventKind::kRestart) {
      EXPECT_TRUE(killed[ev.target])
          << "restart of site " << ev.target << " which was not killed";
      killed[ev.target] = false;
    }
  }

  auto parsed = ChaosSchedule::from_json(schedule.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value(), schedule);
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

TEST(ChaosShrinkTest, LossWedgeShrinksToReplayableArtifact) {
  // A 50-event churn schedule in exploratory loss mode. The runtime
  // assumes reliable links (DESIGN.md §7), so a loss burst wedges the
  // program; ddmin must isolate a tiny culprit subset. Churn events
  // *after* a burst can mask the wedge: a kill triggers recovery, which
  // rolls execution back past the lost message and re-sends it — and the
  // k-replica durability layer widened that rescue window, so we scan
  // seeds for a schedule where no rescue happens rather than pin one.
  chaos::GeneratorOptions opts;
  opts.sites = 4;
  opts.events = 50;
  opts.loss_max = 0.6;

  chaos::HarnessOptions fast;
  ChaosSchedule schedule;
  chaos::RunReport report;
  bool wedged = false;
  for (std::uint64_t seed = 50; seed < 80 && !wedged; ++seed) {
    schedule = chaos::generate_schedule(seed, opts);
    if (schedule.events.size() < 50u) continue;
    report = ChaosHarness(fast).run(schedule);
    wedged = !report.passed;
  }
  ASSERT_TRUE(wedged)
      << "no seed in [50,80) produced a loss schedule that violates an "
         "invariant";
  const std::string target = report.violations.front().invariant;

  chaos::ShrinkResult shrunk =
      chaos::shrink_schedule(schedule, target, fast);
  EXPECT_LE(shrunk.minimal.events.size(), 10u)
      << "ddmin left " << shrunk.minimal.events.size() << " events";
  EXPECT_LT(shrunk.minimal.events.size(), schedule.events.size());
  EXPECT_FALSE(shrunk.report.passed);

  // The artifact replays: parse it back and reproduce the same violation.
  std::string artifact = chaos::make_artifact_json(shrunk.minimal,
                                                   shrunk.report);
  auto replayed = ChaosSchedule::from_json(artifact);
  ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
  EXPECT_EQ(replayed.value(), shrunk.minimal);
  chaos::RunReport rerun = ChaosHarness(fast).run(replayed.value());
  ASSERT_FALSE(rerun.passed);
  bool same_class = false;
  for (const auto& v : rerun.violations) {
    same_class |= v.invariant == target;
  }
  EXPECT_TRUE(same_class)
      << "replay failed differently than the original run";
}

}  // namespace
}  // namespace sdvm
