// Cold-restart recovery over real processes: a 3-site TCP cluster where
// the victim is a genuine sdvmd daemon running with --state-dir. The
// victim is SIGKILLed mid-program (power cut: no destructors, no
// sign-off), its state directory is inspected for committed CRC-framed
// epoch artifacts, and a fresh sdvmd is started over the SAME directory.
// The restarted daemon scans its store, advertises its recoverable
// programs during sign-on, rejoins, and the cluster still produces the
// correct result.
//
// Timing budgets are deliberately loose (2 s failure timeout) so the test
// also holds up under sanitizer slowdowns in CI.
#include <gtest/gtest.h>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "test_util.hpp"

#include "api/tcp_node.hpp"
#include "apps/primes.hpp"
#include "runtime/checkpoint_store.hpp"

extern char** environ;

namespace sdvm {
namespace {

bool wait_until(const std::function<bool()>& cond, int timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

struct ChildGuard {
  pid_t pid = -1;
  ~ChildGuard() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int st = 0;
      ::waitpid(pid, &st, 0);
    }
  }
  void reap() {
    if (pid > 0) {
      int st = 0;
      ::waitpid(pid, &st, 0);
      pid = -1;
    }
  }
};

pid_t spawn_sdvmd(const std::string& join_addr, const std::string& state_dir,
                  const char* name) {
  const char* argv[] = {SDVMD_BIN,
                        "--port", "0",
                        "--join", join_addr.c_str(),
                        "--state-dir", state_dir.c_str(),
                        "--heartbeat-ms", "100",
                        "--failure-timeout-ms", "2000",
                        "--checkpoint-ms", "300",
                        "--name", name,
                        nullptr};
  pid_t pid = -1;
  if (posix_spawn(&pid, SDVMD_BIN, nullptr, nullptr,
                  const_cast<char* const*>(argv), environ) != 0) {
    return -1;
  }
  return pid;
}

TEST(TcpRestartTest, KilledDaemonRestartsFromItsStateDir) {
  namespace fs = std::filesystem;
  SiteConfig cfg;
  cfg.checkpoints_enabled = true;
  cfg.checkpoint_interval = 300'000'000;   // 300 ms
  cfg.heartbeat_interval = 100'000'000;    // 100 ms
  cfg.failure_timeout = 2'000'000'000;     // 2 s: sanitizer-proof
  cfg.replication_factor = 0;              // every site holds every epoch

  TcpNode::Options hopt;
  hopt.site = cfg;
  hopt.site.name = "home";
  auto home = TcpNode::create(hopt);
  ASSERT_TRUE(home.is_ok());
  home.value()->bootstrap();

  TcpNode::Options popt;
  popt.site = cfg;
  popt.site.name = "peer";
  auto peer = TcpNode::create(popt);
  ASSERT_TRUE(peer.is_ok());
  ASSERT_TRUE(
      peer.value()
          ->join_cluster(home.value()->address(), 15 * kNanosPerSecond)
          .is_ok());

  fs::path state_dir =
      fs::temp_directory_path() /
      ("sdvm-restart-" + std::to_string(::getpid()));
  fs::remove_all(state_dir);

  ChildGuard child;
  child.pid = spawn_sdvmd(home.value()->address(), state_dir.string(),
                          "victim");
  ASSERT_GT(child.pid, 0);
  ASSERT_TRUE(wait_until(
      [&] {
        std::lock_guard lk(home.value()->site().lock());
        return home.value()->site().cluster().cluster_size() == 3;
      },
      30'000))
      << "sdvmd child never joined";

  apps::PrimesParams params;
  params.p = 60;
  params.width = 6;
  params.work_mult = 0;
  // Enough work that the program is still running when the cluster
  // detects the SIGKILL even if the victim held none of its frames. The
  // next checkpoint replication (every 300 ms) hits the dead peer, whose
  // transport retry budget runs out ~400 ms later; the program must last
  // longer than that after the kill, or it ends before anyone notices and
  // no recovery runs.
  params.spin = 1'500'000;
  auto pid = home.value()->start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());

  // Wait for a committed checkpoint AND for the victim's directory to hold
  // a durable artifact — proof the replica actually hit its disk. The
  // poll reads the committed epoch directly: a full introspect() snapshot
  // every 5 ms under the home's lock would perturb the run it watches.
  ASSERT_TRUE(wait_until(
      [&] {
        std::lock_guard lk(home.value()->site().lock());
        return home.value()->site().crash().committed_epoch(pid.value()) >=
               1;
      },
      60'000))
      << "no checkpoint committed";
  ASSERT_TRUE(wait_until(
      [&] {
        std::error_code ec;
        for (const auto& e : fs::directory_iterator(state_dir, ec)) {
          if (e.path().extension() == ".ckpt") return true;
        }
        return false;
      },
      60'000))
      << "victim never persisted an epoch file to --state-dir";
  {
    std::lock_guard lk(home.value()->site().lock());
    ASSERT_FALSE(home.value()->site().programs().is_terminated(pid.value()))
        << "program finished before the kill — increase spin";
  }

  ASSERT_EQ(::kill(child.pid, SIGKILL), 0);
  child.reap();

  // The artifacts the dead daemon left behind must be loadable: CRC-framed
  // epoch files a fresh CheckpointStore over the same directory can read.
  {
    auto store = std::make_shared<DirStateStore>(state_dir.string());
    CheckpointStore ckpt(store);
    auto recoverable = ckpt.recoverable();
    ASSERT_FALSE(recoverable.empty())
        << "state dir has no recoverable (program, epoch) pairs";
    EXPECT_EQ(recoverable.front().first.value, pid.value().value);
  }

  // Cold restart: a brand-new process over the SAME state directory. It
  // advertises its recoverable programs during sign-on and rejoins.
  ChildGuard reborn;
  reborn.pid = spawn_sdvmd(home.value()->address(), state_dir.string(),
                           "victim-reborn");
  ASSERT_GT(reborn.pid, 0);
  ASSERT_TRUE(wait_until(
      [&] {
        std::lock_guard lk(home.value()->site().lock());
        return home.value()->site().cluster().cluster_size() >= 3;
      },
      30'000))
      << "restarted sdvmd never rejoined";

  // The cluster — survivors plus the reborn daemon — still produces the
  // right answer.
  auto code = home.value()->wait_program(pid.value(), 180 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  std::uint64_t deaths = 0;
  std::uint64_t recoveries = 0;
  {
    std::lock_guard lk(home.value()->site().lock());
    testing_util::expect_primes_verdict(
        home.value()->site().io().outputs(pid.value()), 60, 6);
    deaths +=
        testing_util::counter(home.value()->site(), "cluster.deaths_detected");
    recoveries +=
        testing_util::counter(home.value()->site(), "crash.recoveries");
  }
  {
    std::lock_guard lk(peer.value()->site().lock());
    deaths +=
        testing_util::counter(peer.value()->site(), "cluster.deaths_detected");
    recoveries +=
        testing_util::counter(peer.value()->site(), "crash.recoveries");
  }
  EXPECT_GE(deaths, 1u) << "nobody noticed the SIGKILL";
  EXPECT_GE(recoveries, 1u) << "no recovery ran";

  // Stop the reborn daemon before deleting its state dir: a live daemon
  // garbage-collects old epochs concurrently with remove_all's directory
  // walk.
  ASSERT_EQ(::kill(reborn.pid, SIGKILL), 0);
  reborn.reap();
  std::error_code ec;
  fs::remove_all(state_dir, ec);
}

}  // namespace
}  // namespace sdvm
