// Microthreads as fibers: parking on remote replies, resume order, traps
// inside a fiber, unwinding on kill, and stack reuse.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/local_cluster.hpp"
#include "api/program_builder.hpp"
#include "apps/fibonacci.hpp"
#include "microc/vm.hpp"
#include "runtime/context.hpp"
#include "runtime/fiber.hpp"
#include "sim/sim_cluster.hpp"
#include "test_util.hpp"

namespace sdvm {
namespace {

using sim::SimCluster;

TEST(FiberTest, ParkedFibersResumeInGrantOrder) {
  SimCluster cluster;
  // The file owners never ask for work, so both readers stay on site 1.
  SiteConfig quiet;
  quiet.help_retry_interval = 3600 * kNanosPerSecond;
  cluster.add_site(SiteConfig{});
  cluster.add_site(quiet);
  cluster.add_site(quiet);
  cluster.site(1).io().vfs_put("near.txt", "near");
  cluster.site(2).io().vfs_put("far.txt", "far");
  net::LinkModel slow;
  slow.latency = 5'000'000;
  const std::string home = cluster.site(0).transport()->local_address();
  const std::string far = cluster.site(2).transport()->local_address();
  cluster.network().set_link(home, far, slow);
  cluster.network().set_link(far, home, slow);

  auto order = std::make_shared<std::vector<std::string>>();
  auto spec =
      ProgramBuilder("fiber-grant-order")
          .native_thread("entry",
                         [](Context& ctx) {
                           GlobalAddress done = ctx.spawn("done", 2);
                           // The far read parks first, the near one second.
                           for (const char* t : {"read_far", "read_near"}) {
                             GlobalAddress r = ctx.spawn(t, 1);
                             ctx.send_int(r, 0,
                                          static_cast<std::int64_t>(
                                              done.value));
                           }
                         })
          .native_thread("read_far",
                         [order](Context& ctx) {
                           order->push_back(ctx.file_read("@3/far.txt"));
                           ctx.send_int(GlobalAddress{static_cast<
                                            std::uint64_t>(ctx.param_int(0))},
                                        0, 1);
                         })
          .native_thread("read_near",
                         [order](Context& ctx) {
                           order->push_back(ctx.file_read("@2/near.txt"));
                           ctx.send_int(GlobalAddress{static_cast<
                                            std::uint64_t>(ctx.param_int(0))},
                                        1, 1);
                         })
          .native_thread("done", [](Context& ctx) { ctx.exit_program(0); })
          .entry("entry")
          .build();
  auto pid = cluster.start_program(spec);
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(cluster.run_program(pid.value(), 60 * kNanosPerSecond).is_ok());
  EXPECT_EQ(*order, (std::vector<std::string>{"near", "far"}));
  EXPECT_EQ(testing_util::counter(cluster.site(0), "io.rerouted_reads"), 2u);
}

TEST(FiberTest, IntrinsicErrorIsTrappedInsideItsFiber) {
  SimCluster cluster;
  SiteConfig quiet;  // the file owner never takes work away
  quiet.help_retry_interval = 3600 * kNanosPerSecond;
  cluster.add_site(SiteConfig{});
  cluster.add_site(quiet);
  auto spec =
      ProgramBuilder("fiber-trap")
          .native_thread("entry",
                         [](Context& ctx) {
                           (void)ctx.spawn("missing_file", 0);
                           throw microc::IntrinsicError("boom");
                         })
          .native_thread("missing_file",
                         [](Context& ctx) {
                           (void)ctx.spawn("finish", 0);
                           // Parks; the owner's "not found" unwinds it.
                           (void)ctx.file_read("@2/no-such-file");
                           ctx.exit_program(1);
                         })
          .native_thread("finish", [](Context& ctx) { ctx.exit_program(0); })
          .entry("entry")
          .build();
  auto pid = cluster.start_program(spec);
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 60 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_EQ(code.value(), 0);
  cluster.loop().run_for(kNanosPerSecond);  // the owner's answer lands
  EXPECT_EQ(testing_util::counter(cluster.site(0), "proc.trapped"), 2u);
  EXPECT_EQ(testing_util::counter(cluster.site(0), "proc.executed"), 3u);
  EXPECT_EQ(testing_util::counter(cluster.site(0), "io.rerouted_reads"), 1u);
}

TEST(FiberTest, KillUnwindsFiberParkedOnRemoteRead) {
  LocalCluster::Options options;
  options.link.latency = 200'000'000;  // the reply is still in flight
  LocalCluster cluster(options);
  cluster.add_sites(2);
  cluster.site(0).io().vfs_put("data.txt", "payload");

  static std::atomic<int> unwound{0};
  unwound = 0;
  struct Guard {
    ~Guard() { unwound.fetch_add(1); }
  };
  auto spec = ProgramBuilder("fiber-kill")
                  .native_thread("entry",
                                 [](Context& ctx) {
                                   Guard guard;
                                   (void)ctx.file_read("@1/data.txt");
                                   ctx.exit_program(0);
                                 })
                  .entry("entry")
                  .build();
  auto pid = cluster.start_program(spec, /*home_index=*/1);
  ASSERT_TRUE(pid.is_ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (testing_util::counter(cluster.site(1), "io.rerouted_reads") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard lk(cluster.site(1).lock());
    ASSERT_EQ(cluster.site(1).processing().running(), 1);
  }
  EXPECT_EQ(unwound.load(), 0);

  cluster.kill(1);
  EXPECT_EQ(unwound.load(), 1);
  EXPECT_EQ(cluster.site(1).processing().running(), 0);
}

TEST(FiberTest, StacksAreRecycledAcrossFrames) {
  const std::uint64_t before = Fiber::stacks_allocated();
  SimCluster cluster;
  cluster.add_sites(4);
  apps::FibParams params;
  params.n = 20;
  params.leaf_work = 1'000;
  auto pid = cluster.start_program(apps::make_fib_program(params));
  ASSERT_TRUE(pid.is_ok());
  ASSERT_TRUE(
      cluster.run_program(pid.value(), 3600 * kNanosPerSecond).is_ok());
  std::uint64_t executed = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    executed += testing_util::counter(cluster.site(i), "proc.executed");
  }
  EXPECT_GE(executed, 10'000u);
  // Only parked fibers hold a stack; fib never parks.
  EXPECT_LE(Fiber::stacks_allocated() - before,
            static_cast<std::uint64_t>(SiteConfig{}.executor_slots));
}

}  // namespace
}  // namespace sdvm
