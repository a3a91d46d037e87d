// Manager-level behaviour tests on small live clusters: status text,
// gossip propagation, help-target selection, io path parsing, program
// manager lifecycle, sign-off successor routing.
#include <gtest/gtest.h>

#include "api/program_builder.hpp"
#include "apps/primes.hpp"
#include "runtime/context.hpp"
#include "sim/sim_cluster.hpp"

namespace sdvm {
namespace {

using sim::SimCluster;

TEST(StatusQueryTest, LocalStatusMentionsAllManagers) {
  SimCluster cluster;
  cluster.add_sites(1);
  std::string s = cluster.site(0).introspect().to_text();
  for (const char* metric :
       {"cluster.", "sched.", "proc.", "mem.", "dir.", "code.", "msg.", "io.",
        "sec.", "crash."}) {
    EXPECT_NE(s.find(metric), std::string::npos) << "missing " << metric;
  }
}

TEST(GossipTest, LateSiteLearnsWholeClusterEventually) {
  SimCluster cluster;
  cluster.add_sites(5);
  // The 5th site joined via site 1 and initially may know only the
  // snapshot; heartbeats and gossip rounds must spread everything.
  cluster.loop().run_for(3 * kNanosPerSecond);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.site(i).cluster().cluster_size(), 5u)
        << "site index " << i << " has an incomplete cluster list";
  }
}

// Every live site's view must equal the id-sorted alive entries of its
// cluster list, and its shard targets must be computed over that view.
void expect_live_view_consistent(SimCluster& cluster,
                                 const std::vector<std::size_t>& live,
                                 const std::string& when) {
  for (std::size_t i : live) {
    const ClusterManager& cm = cluster.site(i).cluster();
    const auto list = cm.encode_cluster_list();
    ByteReader r(list);
    std::vector<SiteId> alive;
    for (std::uint32_t n = r.u32(); n > 0; --n) {
      auto info = SiteInfo::deserialize(r);
      ASSERT_TRUE(info.is_ok()) << when;
      if (info.value().alive) alive.push_back(info.value().id);
    }
    std::sort(alive.begin(), alive.end());
    EXPECT_EQ(cm.live_sites(), alive) << when << ", site index " << i;
    EXPECT_EQ(cm.cluster_size(), cm.live_sites().size()) << when;
    for (std::uint32_t s = 0; s < kNumShards; ++s) {
      EXPECT_EQ(cluster.site(i).memory().rendezvous_target(s),
                shard_target(s, cm.live_sites()))
          << when << ", site index " << i << ", shard " << s;
    }
  }
}

TEST(ClusterManagerTest, LiveViewTracksMembership) {
  SimCluster cluster;
  cluster.add_sites(6);
  std::vector<std::size_t> live = {0, 1, 2, 3, 4, 5};
  cluster.loop().run_for(kNanosPerSecond);
  expect_live_view_consistent(cluster, live, "after joins");
  EXPECT_EQ(cluster.site(0).cluster().cluster_size(), 6u);

  ASSERT_TRUE(cluster.sign_off(5).is_ok());
  live.pop_back();
  cluster.loop().run_for(kNanosPerSecond);
  expect_live_view_consistent(cluster, live, "after a sign-off");
  EXPECT_EQ(cluster.site(0).cluster().cluster_size(), 5u);

  const SiteId killed = cluster.site(4).id();
  cluster.kill(4);
  live.pop_back();
  cluster.loop().run_for(4 * cluster.site(0).config().failure_timeout);
  expect_live_view_consistent(cluster, live, "after a crash");
  EXPECT_FALSE(cluster.site(0).cluster().is_alive(killed));
  EXPECT_EQ(cluster.site(0).cluster().cluster_size(), 4u);

  // A ghost from a previous incarnation enters the list dead.
  constexpr SiteId kGhost = 999;
  cluster.site(0).cluster().set_successor(kGhost, cluster.site(0).id(),
                                          /*gossip=*/true);
  cluster.loop().run_for(kNanosPerSecond);
  expect_live_view_consistent(cluster, live, "after a ghost successor");
  for (std::size_t i : live) {
    const ClusterManager& cm = cluster.site(i).cluster();
    ASSERT_NE(cm.find(kGhost), nullptr) << "site index " << i;
    EXPECT_FALSE(cm.is_alive(kGhost));
    EXPECT_EQ(cm.cluster_size(), 4u);
  }
}

TEST(GossipTest, LoadStatisticsPropagate) {
  SimCluster cluster;
  cluster.add_sites(3);
  apps::PrimesParams params;
  params.p = 40;
  params.width = 10;
  params.work_mult = 50'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  cluster.loop().run_for(2 * kNanosPerSecond);
  // Site 3 must have heard a nonzero executed_total for some peer.
  bool heard_load = false;
  for (SiteId sid : cluster.site(2).cluster().live_sites()) {
    const SiteInfo* info = cluster.site(2).cluster().find(sid);
    if (info != nullptr && sid != cluster.site(2).id() &&
        info->load.executed_total > 0) {
      heard_load = true;
    }
  }
  EXPECT_TRUE(heard_load);
  (void)cluster.run_program(pid.value(), 3000 * kNanosPerSecond);
}

TEST(SuccessorRoutingTest, ChainOfSignOffsStillRoutes) {
  SimCluster cluster;
  cluster.add_sites(4);
  // Sites 4 then 3 sign off; 4's successor may be 3, which is then also
  // gone — resolve_successor must follow the chain to a live site.
  ASSERT_TRUE(cluster.sign_off(3).is_ok());
  ASSERT_TRUE(cluster.sign_off(2).is_ok());
  cluster.loop().run_for(kNanosPerSecond);
  SiteId resolved4 = cluster.site(0).cluster().resolve_successor(4);
  SiteId resolved3 = cluster.site(0).cluster().resolve_successor(3);
  const SiteInfo* info4 = cluster.site(0).cluster().find(resolved4);
  const SiteInfo* info3 = cluster.site(0).cluster().find(resolved3);
  ASSERT_NE(info4, nullptr);
  ASSERT_NE(info3, nullptr);
  EXPECT_TRUE(info4->alive);
  EXPECT_TRUE(info3->alive);
}

TEST(SuccessorRoutingTest, RelayAfterSignOffCountsAsSent) {
  SimCluster cluster;
  cluster.add_sites(3);
  cluster.loop().run_for(kNanosPerSecond);
  Site& leaver = cluster.site(2);
  Site& sender = cluster.site(1);
  auto counter = [](Site& s, const std::string& name) {
    return s.introspect().metrics.counter(name);
  };

  // Sign off without running the loop: the sender has not heard the
  // notice yet, so its output still goes to the departed site, which must
  // relay it to the successor.
  auto successor = leaver.sign_off();
  ASSERT_TRUE(successor.is_ok());
  ASSERT_TRUE(leaver.signed_off());
  const std::uint64_t sent_before = counter(leaver, "msg.sent");
  {
    std::lock_guard lock(sender.lock());
    ByteWriter w;
    w.str("late line");
    SdMessage msg;
    msg.dst = leaver.id();
    msg.src_mgr = msg.dst_mgr = ManagerId::kIo;
    msg.type = MsgType::kIoOutput;
    msg.program = ProgramId{1};
    msg.payload = w.take();
    ASSERT_TRUE(sender.messages().send(std::move(msg)).is_ok());
  }
  cluster.loop().run_for(kNanosPerSecond);

  const std::uint64_t relayed = counter(leaver, "msg.forwarded_departed");
  EXPECT_GE(relayed, 1u);
  EXPECT_EQ(counter(leaver, "msg.sent.io-output"), relayed);
  EXPECT_GE(counter(leaver, "msg.sent") - sent_before, relayed);
  Site& heir = cluster.site(successor.value() - 1);
  ASSERT_EQ(heir.id(), successor.value());
  EXPECT_EQ(counter(heir, "msg.received.io-output"), 1u);
}

TEST(ProgramManagerTest, InfoFetchedOnDemand) {
  SimCluster cluster;
  cluster.add_sites(2);
  auto spec = ProgramBuilder("ondemand")
                  .thread("entry", "out(1); exit(0);")
                  .entry("entry")
                  .build();
  auto pid = cluster.start_program(spec, /*home_index=*/0);
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(cluster.run_program(pid.value(), 60 * kNanosPerSecond).is_ok());

  // Site 2 never executed anything of this trivial program; ensure_known
  // must fetch the description from the home site on demand.
  bool known = false;
  Status got = Status::error(ErrorCode::kInternal, "pending");
  cluster.site(1).programs().ensure_known(pid.value(), /*hint=*/1,
                                          [&](Status st) {
                                            known = true;
                                            got = st;
                                          });
  cluster.loop().run_for(kNanosPerSecond / 100);
  ASSERT_TRUE(known);
  EXPECT_TRUE(got.is_ok()) << got.to_string();
  EXPECT_NE(cluster.site(1).programs().find(pid.value()), nullptr);
}

TEST(ProgramManagerTest, ActiveCountMatchesActivePrograms) {
  SimCluster cluster;
  cluster.add_sites(2);
  ProgramManager& pm = cluster.site(0).programs();
  const auto expect_active = [&](std::size_t n) {
    EXPECT_EQ(pm.active_count(), n);
    EXPECT_EQ(pm.active_count(), pm.active_programs().size());
    EXPECT_EQ(pm.has_active(), n > 0);
  };
  expect_active(0);

  auto spec = ProgramBuilder("count")
                  .thread("entry", "out(1); exit(0);")
                  .entry("entry")
                  .build();
  auto a = cluster.start_program(spec, /*home_index=*/0);
  auto b = cluster.start_program(spec, /*home_index=*/0);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  expect_active(2);
  ASSERT_TRUE(cluster.run_program(a.value(), 60 * kNanosPerSecond).is_ok());
  ASSERT_TRUE(cluster.run_program(b.value(), 60 * kNanosPerSecond).is_ok());
  expect_active(0);

  // Termination of programs homed elsewhere, as site 1 broadcasts it.
  const SiteId other = cluster.site(1).id();
  const auto terminated_elsewhere = [&](ProgramId pid) {
    SdMessage msg;
    msg.src = other;
    msg.dst = cluster.site(0).id();
    msg.src_mgr = msg.dst_mgr = ManagerId::kProgram;
    msg.type = MsgType::kProgramTerminated;
    msg.program = pid;
    msg.payload = to_bytes(std::int64_t{0});
    pm.handle(msg);
  };
  const auto info_of = [&](ProgramId pid) {
    ProgramInfo info;
    info.id = pid;
    info.name = "remote";
    info.home_site = other;
    return info;
  };

  // A program this site knows, then sees terminate.
  const ProgramId known(other, 100);
  pm.register_info(info_of(known));
  expect_active(1);
  terminated_elsewhere(known);
  expect_active(0);

  // A program this site never saw: terminated_ gains an id infos_ lacks,
  // and an info arriving later must not count it as active.
  const ProgramId unseen(other, 101);
  terminated_elsewhere(unseen);
  EXPECT_TRUE(pm.is_terminated(unseen));
  EXPECT_EQ(pm.find(unseen), nullptr);
  expect_active(0);
  pm.register_info(info_of(unseen));
  expect_active(0);
  pm.register_info(info_of(ProgramId(other, 102)));
  pm.register_info(info_of(ProgramId(other, 102)));  // re-registration
  expect_active(1);
}

TEST(ProgramManagerTest, DuplicateStartValidation) {
  SimCluster cluster;
  cluster.add_sites(1);
  ProgramSpec bad;
  bad.name = "bad";
  bad.entry = "missing";
  MicrothreadSpec t;
  t.name = "a";
  t.source = "out(1);";
  bad.threads.push_back(t);
  EXPECT_FALSE(cluster.site(0).start_program(bad).is_ok());

  ProgramSpec dup;
  dup.name = "dup";
  dup.entry = "a";
  dup.threads.push_back(t);
  dup.threads.push_back(t);  // duplicate name
  EXPECT_FALSE(cluster.site(0).start_program(dup).is_ok());

  ProgramSpec empty_thread;
  empty_thread.name = "e";
  empty_thread.entry = "a";
  MicrothreadSpec bodyless;
  bodyless.name = "a";
  empty_thread.threads.push_back(bodyless);
  EXPECT_FALSE(cluster.site(0).start_program(empty_thread).is_ok());
}

TEST(IoPathTest, FrontendOutputOrderPreserved) {
  SimCluster cluster;
  cluster.add_sites(1);
  auto spec = ProgramBuilder("order")
                  .thread("entry", R"(
                    var i = 0;
                    while (i < 10) { out(i); i = i + 1; }
                    exit(0);
                  )")
                  .entry("entry")
                  .build();
  auto pid = cluster.start_program(spec);
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(cluster.run_program(pid.value(), 60 * kNanosPerSecond).is_ok());
  auto out = cluster.outputs(0, pid.value());
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], std::to_string(i));
  }
}

TEST(HelpTargetTest, PrefersLoadedSites) {
  SimCluster cluster;
  cluster.add_sites(3);
  // Fake knowledge: site 3 claims a deep queue.
  SiteInfo fake = *cluster.site(0).cluster().find(3);
  fake.load.queued_frames = 50;
  fake.version += 1;
  cluster.site(0).cluster().merge(fake);
  auto target = cluster.site(0).cluster().pick_help_target();
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, 3u);
  // Excluding it falls back to someone else.
  auto other = cluster.site(0).cluster().pick_help_target({3});
  ASSERT_TRUE(other.has_value());
  EXPECT_NE(*other, 3u);
}

TEST(TerminationTest, ResourcesFreedEverywhere) {
  SimCluster cluster;
  cluster.add_sites(3);
  apps::PrimesParams params;
  params.p = 20;
  params.width = 8;
  params.work_mult = 10'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(cluster.run_program(pid.value(), 600 * kNanosPerSecond).is_ok());
  cluster.loop().run_for(kNanosPerSecond);

  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.site(i).memory().frame_count(), 0u)
        << "site " << i << " leaked frames";
    EXPECT_EQ(cluster.site(i).memory().object_count(), 0u)
        << "site " << i << " leaked memory objects";
    EXPECT_EQ(cluster.site(i).scheduling().queued_total(), 0u);
    EXPECT_TRUE(cluster.site(i).programs().is_terminated(pid.value()) ||
                cluster.site(i).programs().find(pid.value()) == nullptr);
  }
}

}  // namespace
}  // namespace sdvm
