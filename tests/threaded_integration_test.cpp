// Integration tests in "threads" mode: every site is a real daemon with
// engine + worker threads over the in-process fabric. Wall-clock time,
// true parallelism, real blocking on remote memory.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include "api/local_cluster.hpp"
#include "api/program_builder.hpp"
#include "apps/fibonacci.hpp"
#include "apps/matmul.hpp"
#include "apps/primes.hpp"
#include "runtime/context.hpp"

namespace sdvm {
namespace {

constexpr Nanos kWaitLimit = 30 * kNanosPerSecond;

TEST(ThreadedTest, HelloWorld) {
  LocalCluster cluster;
  cluster.add_sites(1);
  auto spec = ProgramBuilder("hello")
                  .thread("entry", "out(7); exit(0);")
                  .entry("entry")
                  .build();
  auto pid = cluster.start_program(spec);
  ASSERT_TRUE(pid.is_ok()) << pid.status().to_string();
  auto code = cluster.wait_program(pid.value(), kWaitLimit);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_EQ(cluster.outputs(0, pid.value()), std::vector<std::string>{"7"});
}

TEST(ThreadedTest, PrimesDistributeAcrossSites) {
  LocalCluster cluster;
  cluster.add_sites(4);
  apps::PrimesParams params;
  params.p = 40;
  params.width = 12;
  params.work_mult = 0;  // wall time: no virtual charge needed
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.wait_program(pid.value(), kWaitLimit);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  testing_util::expect_primes_verdict(cluster.outputs(0, pid.value()), 40, 12);
}

TEST(ThreadedTest, NativeThreadsAndGlobalMemory) {
  LocalCluster cluster;
  cluster.add_sites(2);
  // Native entry allocates an object, a MicroC worker on (possibly) the
  // other site increments it, native finisher checks — exercising the
  // real blocking migration protocol.
  auto spec =
      ProgramBuilder("memory")
          .native_thread("entry",
                         [](Context& ctx) {
                           GlobalAddress obj = ctx.alloc_global(4);
                           ctx.mem_write(obj, 0, 100);
                           GlobalAddress fin = ctx.spawn("finish", 1);
                           GlobalAddress w = ctx.spawn("work", 2);
                           ctx.send_int(w, 0, static_cast<std::int64_t>(obj.value));
                           ctx.send_int(w, 1, static_cast<std::int64_t>(fin.value));
                         })
          .thread("work", R"(
            var obj = param(0);
            var fin = param(1);
            store(obj, 1, load(obj, 0) * 2);
            send(fin, 0, obj);
          )")
          .native_thread("finish",
                         [](Context& ctx) {
                           GlobalAddress obj{
                               static_cast<std::uint64_t>(ctx.param_int(0))};
                           std::int64_t v = ctx.mem_read(obj, 1);
                           ctx.out(v);
                           ctx.exit_program(0);
                         })
          .entry("entry")
          .build();
  auto pid = cluster.start_program(spec);
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.wait_program(pid.value(), kWaitLimit);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_EQ(cluster.outputs(0, pid.value()).back(), "200");
}

TEST(ThreadedTest, MatmulCorrectUnderRealConcurrency) {
  LocalCluster cluster;
  cluster.add_sites(3);
  apps::MatmulParams params;
  params.n = 12;
  params.block_rows = 3;
  auto pid = cluster.start_program(apps::make_matmul_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.wait_program(pid.value(), kWaitLimit);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();

  auto ref = apps::matmul_reference(params.n);
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    expected += ref[i] * (static_cast<std::int64_t>(i) % 13 + 1);
  }
  EXPECT_EQ(cluster.outputs(0, pid.value()).back(), std::to_string(expected));
}

TEST(ThreadedTest, FibCorrectUnderRealConcurrency) {
  LocalCluster cluster;
  cluster.add_sites(4);
  apps::FibParams params;
  params.n = 13;
  params.leaf_work = 0;
  auto pid = cluster.start_program(apps::make_fib_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.wait_program(pid.value(), kWaitLimit);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_EQ(cluster.outputs(0, pid.value()).back(),
            std::to_string(apps::fib_reference(13)));
}

TEST(ThreadedTest, EncryptedClusterWithLatency) {
  LocalCluster::Options options;
  options.link.latency = 200'000;  // 200 us real delay per message
  LocalCluster cluster(options);
  SiteConfig cfg;
  cfg.encrypt = true;
  cfg.cluster_password = "s3cret";
  cluster.add_sites(3, cfg);

  apps::PrimesParams params;
  params.p = 20;
  params.width = 8;
  params.work_mult = 0;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.wait_program(pid.value(), kWaitLimit);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  testing_util::expect_primes_verdict(cluster.outputs(0, pid.value()), 20, 8);
  EXPECT_GT(testing_util::counter(cluster.site(0), "sec.sealed"), 0u);
}

TEST(ThreadedTest, SignOffMidRunRelocates) {
  LocalCluster cluster;
  cluster.add_sites(3);
  apps::PrimesParams params;
  params.p = 50;
  params.width = 10;
  params.work_mult = 0;
  auto pid = cluster.start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  {
    std::lock_guard lk(cluster.site(2).lock());
    auto succ = cluster.site(2).sign_off();
    ASSERT_TRUE(succ.is_ok()) << succ.status().to_string();
  }
  auto code = cluster.wait_program(pid.value(), kWaitLimit);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  testing_util::expect_primes_verdict(cluster.outputs(0, pid.value()), 50, 10);
}

TEST(ThreadedTest, MultipleProgramsConcurrently) {
  LocalCluster cluster;
  cluster.add_sites(3);
  apps::PrimesParams p1;
  p1.p = 20;
  p1.width = 6;
  p1.work_mult = 0;
  apps::FibParams p2;
  p2.n = 11;
  p2.leaf_work = 0;
  auto a = cluster.start_program(apps::make_primes_program(p1), 0);
  auto b = cluster.start_program(apps::make_fib_program(p2), 2);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  auto ca = cluster.wait_program(a.value(), kWaitLimit);
  auto cb = cluster.wait_program(b.value(), kWaitLimit);
  ASSERT_TRUE(ca.is_ok()) << ca.status().to_string();
  ASSERT_TRUE(cb.is_ok()) << cb.status().to_string();
  testing_util::expect_primes_verdict(cluster.outputs(0, a.value()), 20, 6);
  EXPECT_EQ(cluster.outputs(2, b.value()).back(),
            std::to_string(apps::fib_reference(11)));
}

}  // namespace
}  // namespace sdvm
