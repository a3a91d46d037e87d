// Crash management: heartbeat failure detection, coordinated
// checkpointing, rollback recovery, and home-site takeover from the
// checkpoint replica — all in sim mode with deterministic fault injection.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include "api/program_builder.hpp"
#include "apps/primes.hpp"
#include "runtime/context.hpp"
#include "sim/sim_cluster.hpp"

namespace sdvm {
namespace {

using sim::SimCluster;

SiteConfig checkpointing_config() {
  SiteConfig cfg;
  cfg.checkpoints_enabled = true;
  cfg.checkpoint_interval = kNanosPerSecond / 2;  // aggressive: every 0.5 s
  cfg.heartbeat_interval = 100'000'000;           // 100 ms
  cfg.failure_timeout = 400'000'000;              // 400 ms
  return cfg;
}

apps::PrimesParams long_job() {
  apps::PrimesParams p;
  p.p = 60;
  p.width = 8;
  p.work_mult = 30'000'000;  // ~30 ms per candidate: several seconds total
  return p;
}

TEST(CrashTest, CheckpointsCommitDuringRun) {
  SimCluster cluster;
  cluster.add_sites(3, 1.0, checkpointing_config());
  auto pid = cluster.start_program(apps::make_primes_program(long_job()));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 3000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_GT(testing_util::counter(cluster.site(0),
                                  "crash.checkpoints_committed"), 0u);
  testing_util::expect_primes_verdict(cluster.outputs(0, pid.value()), 60, 8);
}

TEST(CrashTest, FailureDetectorFindsDeadSite) {
  SimCluster cluster;
  cluster.add_sites(3, 1.0, checkpointing_config());
  cluster.kill(2);
  // Heartbeats stop; within a few timeouts everyone marks site 3 dead.
  cluster.loop().run_for(3 * kNanosPerSecond);
  const SiteInfo* info = cluster.site(0).cluster().find(3);
  ASSERT_NE(info, nullptr);
  EXPECT_FALSE(info->alive);
}

TEST(CrashTest, WorkerCrashRecoversFromCheckpoint) {
  SimCluster cluster;
  cluster.add_sites(4, 1.0, checkpointing_config());
  auto pid = cluster.start_program(apps::make_primes_program(long_job()));
  ASSERT_TRUE(pid.is_ok());

  // Run long enough for at least one checkpoint, then kill a worker.
  cluster.loop().run_for(2 * kNanosPerSecond);
  ASSERT_GT(testing_util::counter(cluster.site(0),
                                  "crash.checkpoints_committed"), 0u)
      << "no checkpoint before the crash — test setup too fast";
  cluster.kill(2);

  auto code = cluster.run_program(pid.value(), 3000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_GE(testing_util::counter(cluster.site(0), "crash.recoveries"), 1u);
  // The answer is still correct (outputs may contain duplicates from
  // re-executed rounds; the final line is the verdict).
  testing_util::expect_primes_verdict(cluster.outputs(0, pid.value()), 60, 8);
}

TEST(CrashTest, HomeSiteCrashBackupTakesOver) {
  SimCluster cluster;
  cluster.add_sites(4, 1.0, checkpointing_config());
  auto pid = cluster.start_program(apps::make_primes_program(long_job()));
  ASSERT_TRUE(pid.is_ok());

  cluster.loop().run_for(2 * kNanosPerSecond);
  ASSERT_GT(testing_util::counter(cluster.site(0),
                                  "crash.checkpoints_committed"), 0u);
  // Kill the home/coordinator site itself.
  cluster.kill(0);

  auto code = cluster.run_program(pid.value(), 6000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();

  // The replica holder (lowest surviving id) became the new home and
  // collected the final output.
  bool someone_recovered = false;
  for (std::size_t i = 1; i < cluster.size(); ++i) {
    someone_recovered |=
        testing_util::counter(cluster.site(i), "crash.recoveries") > 0;
  }
  EXPECT_TRUE(someone_recovered);
  bool verdict_seen = false;
  for (std::size_t i = 1; i < cluster.size(); ++i) {
    auto out = cluster.outputs(i, pid.value());
    if (!out.empty() && std::stoll(out.back()) >= 60) verdict_seen = true;
  }
  EXPECT_TRUE(verdict_seen) << "no surviving site collected the result";
}

TEST(CrashTest, CrashBeforeFirstCheckpointRestartsFromEpochZero) {
  // A site dies before any checkpoint committed: nothing to roll back to,
  // so the coordinator restarts the program from its entry frame instead
  // of letting it hang with lost frames.
  SimCluster cluster;
  SiteConfig cfg = checkpointing_config();
  cfg.checkpoint_interval = 30 * kNanosPerSecond;  // "never" within the run
  cluster.add_sites(4, 1.0, cfg);
  apps::PrimesParams job = long_job();
  job.p = 40;
  auto pid = cluster.start_program(apps::make_primes_program(job));
  ASSERT_TRUE(pid.is_ok());

  cluster.loop().run_for(kNanosPerSecond);
  ASSERT_EQ(testing_util::counter(cluster.site(0),
                                  "crash.checkpoints_committed"), 0u);
  cluster.kill(2);

  auto code = cluster.run_program(pid.value(), 3000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_GE(testing_util::counter(cluster.site(0), "crash.recoveries"), 1u);
  testing_util::expect_primes_verdict(cluster.outputs(0, pid.value()), 40, 8);
}

TEST(CrashTest, CrashWithoutCheckpointsNoRecovery) {
  // Checkpoints disabled: a death is detected but nothing is restored.
  SimCluster cluster;
  SiteConfig cfg = checkpointing_config();
  cfg.checkpoints_enabled = false;
  cluster.add_sites(3, 1.0, cfg);
  auto pid = cluster.start_program(apps::make_primes_program(long_job()));
  ASSERT_TRUE(pid.is_ok());
  cluster.loop().run_for(kNanosPerSecond);
  cluster.kill(2);
  cluster.loop().run_for(3 * kNanosPerSecond);
  EXPECT_EQ(testing_util::counter(cluster.site(0), "crash.recoveries"), 0u);
}

TEST(CrashTest, RepeatedCrashesStillFinish) {
  SimCluster cluster;
  cluster.add_sites(5, 1.0, checkpointing_config());
  apps::PrimesParams job = long_job();
  job.p = 150;  // long enough to survive two mid-run crashes
  auto pid = cluster.start_program(apps::make_primes_program(job));
  ASSERT_TRUE(pid.is_ok());

  cluster.loop().run_for(2 * kNanosPerSecond);
  ASSERT_GT(testing_util::counter(cluster.site(0),
                                  "crash.checkpoints_committed"), 0u);
  cluster.kill(4);
  cluster.loop().run_for(2 * kNanosPerSecond);
  cluster.kill(3);

  auto code = cluster.run_program(pid.value(), 9000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  testing_util::expect_primes_verdict(cluster.outputs(0, pid.value()), 150, 8);
  EXPECT_GE(testing_util::counter(cluster.site(0), "crash.recoveries"), 2u);
}

}  // namespace
}  // namespace sdvm
