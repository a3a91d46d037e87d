// Sharded homesite directory under fire: lease convergence, killing the
// lease holder mid-program (sim and real TCP), crash takeover + rebuild,
// remigration on join, and the stale-epoch reject path — a mis-routed or
// stale-epoch request is bounced with kShardStale and re-routed, never
// silently served.
#include <gtest/gtest.h>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "test_util.hpp"

#include "api/tcp_node.hpp"
#include "apps/matmul.hpp"
#include "apps/primes.hpp"
#include "runtime/context.hpp"
#include "runtime/shard_map.hpp"
#include "sim/sim_cluster.hpp"

extern char** environ;

namespace sdvm {
namespace {

using sim::SimCluster;

SiteConfig checkpointing_config() {
  SiteConfig cfg;
  cfg.checkpoints_enabled = true;
  cfg.checkpoint_interval = kNanosPerSecond / 2;  // every 0.5 s
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

/// Expected matmul checksum: sum(C[i] * (i % 13 + 1)) over the reference
/// product — must match the program's final out() line exactly.
std::int64_t matmul_checksum(std::int64_t n) {
  auto c = apps::matmul_reference(n);
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    sum += c[i] * (static_cast<std::int64_t>(i) % 13 + 1);
  }
  return sum;
}

/// The live slot (excluding slot 0, the home) holding the most shard
/// leases — the kill target that actually exercises takeover.
std::size_t lease_richest_slot(SimCluster& cluster) {
  std::size_t victim = 0;
  std::size_t victim_held = 0;
  for (std::size_t i = 1; i < cluster.size(); ++i) {
    const std::size_t held = cluster.site(i).memory().shards_held();
    if (held > victim_held) {
      victim = i;
      victim_held = held;
    }
  }
  return victim;
}

/// Asserts the shard map has converged across the given live slots: every
/// shard has exactly one authoritative holder, every site names the same
/// holder, and together the live sites hold all kNumShards leases.
void expect_shard_convergence(SimCluster& cluster,
                              const std::vector<std::size_t>& live) {
  ASSERT_FALSE(live.empty());
  std::size_t total_held = 0;
  for (std::size_t slot : live) {
    total_held += cluster.site(slot).memory().shards_held();
  }
  EXPECT_EQ(total_held, kNumShards) << "takeover left unowned shards";

  auto first = cluster.site(live[0]).memory().shard_leases();
  for (std::uint32_t s = 0; s < kNumShards; ++s) {
    int authoritative = 0;
    for (std::size_t slot : live) {
      if (cluster.site(slot).memory().shard_authoritative(s)) {
        ++authoritative;
      }
    }
    EXPECT_EQ(authoritative, 1) << "shard " << s << " has " << authoritative
                                << " authoritative holders";
    for (std::size_t slot : live) {
      auto leases = cluster.site(slot).memory().shard_leases();
      EXPECT_EQ(leases[s].holder, first[s].holder)
          << "slot " << slot << " disagrees on shard " << s << " holder";
    }
  }
}

/// No duplicate grants: a global address is physically resident on at most
/// one live site at any quiescent point.
void expect_no_duplicate_owners(SimCluster& cluster,
                                const std::vector<std::size_t>& live) {
  std::map<GlobalAddress, std::vector<std::size_t>> residents;
  for (std::size_t slot : live) {
    for (GlobalAddress addr : cluster.site(slot).memory().owned_addresses()) {
      residents[addr].push_back(slot);
    }
  }
  for (const auto& [addr, slots] : residents) {
    EXPECT_EQ(slots.size(), 1u)
        << "object " << addr.value << " resident on " << slots.size()
        << " live sites (duplicate grant)";
  }
}

std::vector<std::size_t> all_slots_except(std::size_t n, std::size_t dead) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (i != dead) out.push_back(i);
  }
  return out;
}

// --- lease bootstrap & convergence ------------------------------------------

TEST(ShardSimTest, LeaseMapConvergesOnBootstrap) {
  SimCluster cluster;
  cluster.add_sites(4);
  cluster.loop().run_for(2 * kNanosPerSecond);

  expect_shard_convergence(cluster, {0, 1, 2, 3});

  // Holders match the rendezvous targets for the live view — any site can
  // compute the routing table without asking anyone.
  std::vector<SiteId> ids;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    ids.push_back(cluster.site(i).id());
  }
  auto leases = cluster.site(0).memory().shard_leases();
  for (std::uint32_t s = 0; s < kNumShards; ++s) {
    EXPECT_EQ(leases[s].holder, shard_target(s, ids)) << "shard " << s;
    EXPECT_GE(leases[s].epoch, 1u) << "shard " << s << " never leased";
  }
}

TEST(ShardSimTest, JoinRemigratesShardsToNewTarget) {
  SimCluster cluster;
  cluster.add_sites(3);
  cluster.loop().run_for(2 * kNanosPerSecond);
  expect_shard_convergence(cluster, {0, 1, 2});

  std::uint64_t handoffs_before = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    handoffs_before +=
        testing_util::counter(cluster.site(i), "dir.shard_handoffs");
  }

  cluster.add_site(SiteConfig{});
  cluster.loop().run_for(2 * kNanosPerSecond);

  expect_shard_convergence(cluster, {0, 1, 2, 3});
  EXPECT_GT(cluster.site(3).memory().shards_held(), 0u)
      << "rendezvous gave the joiner nothing — remigration untested";
  std::uint64_t handoffs_after = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    handoffs_after +=
        testing_util::counter(cluster.site(i), "dir.shard_handoffs");
  }
  EXPECT_GT(handoffs_after, handoffs_before)
      << "no graceful kShardHandoff carried the remigration";
}

TEST(ShardSimTest, HoldersFollowRendezvousThroughSignOffsAndJoins) {
  // Each site caches the rendezvous targets and updates them one leave or
  // join at a time. A cache that missed a leave would keep a departed
  // site as some shard's winner, and a later joiner that beats the real
  // holder but not the departed site would never receive the shard.
  SimCluster cluster;
  cluster.add_sites(6);
  cluster.loop().run_for(2 * kNanosPerSecond);
  std::vector<std::size_t> live = {0, 1, 2, 3, 4, 5};
  auto expect_holders_on_targets = [&](const char* phase, int round) {
    expect_shard_convergence(cluster, live);
    std::vector<SiteId> ids;
    for (std::size_t slot : live) ids.push_back(cluster.site(slot).id());
    auto leases = cluster.site(0).memory().shard_leases();
    for (std::uint32_t s = 0; s < kNumShards; ++s) {
      EXPECT_EQ(leases[s].holder, shard_target(s, ids))
          << "after " << phase << " in round " << round << ", shard " << s;
    }
  };
  expect_holders_on_targets("bootstrap", 0);
  for (int round = 1; round <= 4; ++round) {
    const std::size_t leaver = live[1 + round % (live.size() - 1)];
    ASSERT_TRUE(cluster.sign_off(leaver).is_ok());
    std::erase(live, leaver);
    cluster.loop().run_for(2 * kNanosPerSecond);
    expect_holders_on_targets("sign-off", round);

    cluster.add_site(SiteConfig{});
    live.push_back(cluster.size() - 1);
    cluster.loop().run_for(2 * kNanosPerSecond);
    expect_holders_on_targets("join", round);
  }
}

// --- killing the lease holder, sim mode -------------------------------------

TEST(ShardSimTest, KillLeaseHolderMidProgramRecovers) {
  SimCluster cluster;
  cluster.add_sites(4, 1.0, checkpointing_config());
  auto pid = cluster.start_program(apps::make_primes_program(long_job()));
  ASSERT_TRUE(pid.is_ok());

  cluster.loop().run_for(2 * kNanosPerSecond);
  ASSERT_GT(testing_util::counter(cluster.site(0),
                                  "crash.checkpoints_committed"), 0u)
      << "no checkpoint before the crash — test setup too fast";

  const std::size_t victim = lease_richest_slot(cluster);
  ASSERT_NE(victim, 0u);
  ASSERT_GE(cluster.site(victim).memory().shards_held(), 1u)
      << "victim holds no leases — not a lease-holder kill";
  const SiteId victim_id = cluster.site(victim).id();
  cluster.kill(victim);

  auto code = cluster.run_program(pid.value(), 3000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  testing_util::expect_primes_verdict(cluster.outputs(0, pid.value()), 60, 8);

  std::uint64_t recoveries = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (i == victim) continue;
    recoveries += testing_util::counter(cluster.site(i), "crash.recoveries");
  }
  EXPECT_GE(recoveries, 1u) << "no checkpoint recovery ran";

  // Successor takeover: the dead holder's shards were re-leased at higher
  // epochs and the survivors agree on the new map.
  cluster.loop().run_for(2 * kNanosPerSecond);
  const std::vector<std::size_t> live = all_slots_except(4, victim);
  expect_shard_convergence(cluster, live);
  for (std::size_t slot : live) {
    auto leases = cluster.site(slot).memory().shard_leases();
    for (std::uint32_t s = 0; s < kNumShards; ++s) {
      EXPECT_NE(leases[s].holder, victim_id)
          << "slot " << slot << " still routes shard " << s
          << " to the dead holder";
    }
  }
}

TEST(ShardSimTest, MatmulChecksumSurvivesLeaseHolderCrash) {
  SimCluster cluster;
  SiteConfig cfg = checkpointing_config();
  cfg.help_retry_interval = 50'000;  // eager help: spread the blocks
  cluster.add_sites(4, 1.0, cfg);
  cluster.loop().run_for(2 * kNanosPerSecond);

  const std::size_t victim = lease_richest_slot(cluster);
  ASSERT_NE(victim, 0u);
  ASSERT_GE(cluster.site(victim).memory().shards_held(), 1u);
  cluster.kill(victim);
  // Let the failure detector fire and the successors take the shards over.
  cluster.loop().run_for(2 * kNanosPerSecond);
  const std::vector<std::size_t> live = all_slots_except(4, victim);
  expect_shard_convergence(cluster, live);

  // The rebuilt directory must still mediate allocation, migration and
  // grants correctly: the distributed matmul checksum is exact.
  apps::MatmulParams params;
  params.n = 16;
  params.block_rows = 2;
  auto pid = cluster.start_program(apps::make_matmul_program(params));
  ASSERT_TRUE(pid.is_ok());
  cluster.loop().run_for(kNanosPerSecond);
  expect_no_duplicate_owners(cluster, live);

  auto code = cluster.run_program(pid.value(), 3000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_EQ(code.value(), 0);
  auto out = cluster.outputs(0, pid.value());
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(std::stoll(out.back()), matmul_checksum(params.n));
  expect_no_duplicate_owners(cluster, live);
}

// --- stale routes are rejected, never silently served -----------------------

/// A fabricated address whose shard the probe site is NOT authoritative
/// for (and whose route points elsewhere), so a delivery to the probe is a
/// mis-route by construction.
GlobalAddress misrouted_address(SimCluster& cluster, std::size_t probe_slot) {
  Site& probe = cluster.site(probe_slot);
  for (std::uint64_t k = 1; k < 256; ++k) {
    GlobalAddress addr(cluster.site(0).id(), 0xB000 + k);
    const std::uint32_t s = shard_of(addr);
    if (!probe.memory().shard_authoritative(s) &&
        probe.memory().shard_route(addr) != probe.id()) {
      return addr;
    }
  }
  return GlobalAddress{};
}

TEST(ShardSimTest, MisroutedRegisterRejectedAndForwarded) {
  SimCluster cluster;
  cluster.add_sites(4);
  cluster.loop().run_for(2 * kNanosPerSecond);

  Site& probe = cluster.site(3);
  const GlobalAddress addr = misrouted_address(cluster, 3);
  ASSERT_TRUE(addr.valid()) << "probe site holds every shard?";
  const std::uint32_t s = shard_of(addr);

  // Deliver a kShardRegister to a site that is not the shard's holder —
  // what a sender with an outdated shard map would produce.
  ShardRegister reg;
  reg.addr = addr;
  reg.owner = cluster.site(0).id();
  ByteWriter w;
  reg.serialize(w);
  SdMessage msg;
  msg.src = cluster.site(0).id();
  msg.dst = probe.id();
  msg.src_mgr = msg.dst_mgr = ManagerId::kAttractionMemory;
  msg.type = MsgType::kShardRegister;
  msg.payload = w.take();

  const std::uint64_t before =
      testing_util::counter(probe, "dir.stale_epoch_rejects");
  probe.memory().handle(msg);
  EXPECT_EQ(testing_util::counter(probe, "dir.stale_epoch_rejects"), before + 1)
      << "mis-routed register not counted as a stale reject";

  // ... and re-routed: after the forward settles, the entry lives at the
  // authoritative holder, not the mis-routed receiver.
  cluster.loop().run_for(kNanosPerSecond);
  Site* holder = cluster.site_by_id(probe.memory().shard_route(addr));
  ASSERT_NE(holder, nullptr);
  EXPECT_TRUE(holder->memory().shard_authoritative(s));
  EXPECT_EQ(holder->memory().directory_owner(addr), cluster.site(0).id())
      << "forwarded registration never reached the shard holder";
}

TEST(ShardSimTest, StaleEpochObjectRequestBouncedNotServed) {
  SimCluster cluster;
  cluster.add_sites(4);
  cluster.loop().run_for(2 * kNanosPerSecond);

  Site& probe = cluster.site(3);
  const GlobalAddress addr = misrouted_address(cluster, 3);
  ASSERT_TRUE(addr.valid());
  const std::uint32_t s = shard_of(addr);

  ShardRoutedRequest req;
  req.addr = addr;
  req.shard = s;
  req.epoch = 0;  // a lease epoch nobody ever held: maximally stale
  ByteWriter w;
  req.serialize(w);
  SdMessage msg;
  msg.src = cluster.site(0).id();
  msg.dst = probe.id();
  msg.src_mgr = msg.dst_mgr = ManagerId::kAttractionMemory;
  msg.type = MsgType::kObjectRequest;
  msg.seq = 4242;
  msg.payload = w.take();

  const std::uint64_t before =
      testing_util::counter(probe, "dir.stale_epoch_rejects");
  probe.memory().handle(msg);
  EXPECT_EQ(testing_util::counter(probe, "dir.stale_epoch_rejects"), before + 1)
      << "stale-epoch request neither rejected nor counted";
  // Never silently served: the non-authoritative site must not have grown
  // a directory entry for the address.
  for (const auto& [entry_addr, owner] : probe.memory().directory_snapshot()) {
    EXPECT_NE(entry_addr, addr) << "stale request was served";
  }
  cluster.loop().run_for(kNanosPerSecond);
}

// --- killing the lease holder, real TCP -------------------------------------

bool wait_until(const std::function<bool()>& cond, int timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

/// SIGKILLs `pid` on destruction so a failing assertion never leaks the
/// spawned daemon.
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

TEST(ShardTcpTest, KillLeaseHolderDaemonMidProgram) {
  SiteConfig cfg;
  cfg.checkpoints_enabled = true;
  cfg.checkpoint_interval = 150'000'000;  // 150 ms
  cfg.heartbeat_interval = 50'000'000;    // 50 ms
  cfg.failure_timeout = 400'000'000;      // 400 ms

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

  // Third site: a real sdvmd process we can SIGKILL once it holds shard
  // leases — directory authority dying without a goodbye.
  std::string join_flag = home.value()->address();
  const char* argv[] = {SDVMD_BIN,        "--port",           "0",
                        "--join",          join_flag.c_str(), "--checkpoints",
                        "--heartbeat-ms",  "50",              "--failure-timeout-ms",
                        "400",             "--checkpoint-ms", "150",
                        "--name",          "victim",          nullptr};
  ChildGuard child;
  ASSERT_EQ(posix_spawn(&child.pid, SDVMD_BIN, nullptr, nullptr,
                        const_cast<char* const*>(argv), environ),
            0);

  ASSERT_TRUE(wait_until(
      [&] {
        std::lock_guard lk(home.value()->site().lock());
        return home.value()->site().cluster().cluster_size() == 3;
      },
      20'000))
      << "sdvmd child never joined the cluster";

  // The joiner must become a real lease holder (remigration moved its
  // rendezvous shards over) before it is worth killing. Introspected over
  // the wire: the same dir.shards_held gauge sdvm-top renders.
  ASSERT_TRUE(wait_until(
      [&] {
        auto cs = home.value()->cluster_status(0, 2 * kNanosPerSecond);
        if (!cs.is_ok()) return false;
        for (const SiteStatus& s : cs.value().sites) {
          if (s.name == "victim" &&
              s.metrics.gauge_value("dir.shards_held") >= 1) {
            return true;
          }
        }
        return false;
      },
      20'000))
      << "child never took over any shard lease";

  apps::PrimesParams params;
  params.p = 60;
  params.width = 6;
  params.work_mult = 0;
  params.spin = 300'000;  // real work: several seconds across 3 sites
  auto pid = home.value()->start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());

  ASSERT_TRUE(wait_until(
      [&] {
        std::lock_guard lk(home.value()->site().lock());
        return testing_util::counter(home.value()->site(),
                                     "crash.checkpoints_committed") >= 1;
      },
      60'000))
      << "no checkpoint committed before the kill";
  {
    std::lock_guard lk(home.value()->site().lock());
    ASSERT_FALSE(home.value()->site().programs().is_terminated(pid.value()))
        << "program finished before the kill — increase spin";
  }

  ASSERT_EQ(::kill(child.pid, SIGKILL), 0);
  child.reap();

  // Survivors detect the death, take the orphaned shards over, recover
  // from the checkpoint and agree on the committed result.
  auto code_home =
      home.value()->wait_program(pid.value(), 180 * kNanosPerSecond);
  ASSERT_TRUE(code_home.is_ok()) << code_home.status().to_string();
  auto code_peer =
      peer.value()->wait_program(pid.value(), 60 * kNanosPerSecond);
  ASSERT_TRUE(code_peer.is_ok()) << code_peer.status().to_string();
  EXPECT_EQ(code_home.value(), code_peer.value())
      << "survivors disagree on the committed result";

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
  EXPECT_GE(recoveries, 1u) << "no checkpoint recovery ran";

  // Shard-map convergence among the survivors: all 16 leases accounted
  // for, both sites naming the same holders, none of them the dead child.
  ASSERT_TRUE(wait_until(
      [&] {
        std::lock_guard lh(home.value()->site().lock());
        std::lock_guard lp(peer.value()->site().lock());
        return home.value()->site().memory().shards_held() +
                   peer.value()->site().memory().shards_held() ==
               kNumShards;
      },
      20'000))
      << "survivors never took over the dead holder's shards";
  {
    std::lock_guard lh(home.value()->site().lock());
    std::lock_guard lp(peer.value()->site().lock());
    auto hl = home.value()->site().memory().shard_leases();
    auto pl = peer.value()->site().memory().shard_leases();
    const SiteId home_id = home.value()->site().id();
    const SiteId peer_id = peer.value()->site().id();
    for (std::uint32_t s = 0; s < kNumShards; ++s) {
      EXPECT_EQ(hl[s].holder, pl[s].holder) << "shard " << s;
      EXPECT_TRUE(hl[s].holder == home_id || hl[s].holder == peer_id)
          << "shard " << s << " still routed to the dead daemon";
    }
    // The child only got its leases through graceful kShardHandoff from
    // the survivors when it joined.
    EXPECT_GE(testing_util::counter(home.value()->site(),
                                    "dir.shard_handoffs") +
                  testing_util::counter(peer.value()->site(),
                                        "dir.shard_handoffs"),
              1u);
  }
}

}  // namespace
}  // namespace sdvm
