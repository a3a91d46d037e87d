// In-process fabric tests: delivery, latency model, loss, partitions,
// kill, stats — the fault-injection substrate all crash tests depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/clock.hpp"
#include "net/inproc.hpp"

namespace sdvm::net {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

TEST(InProcTest, ImmediateDelivery) {
  InProcNetwork net;
  std::string got;
  auto a = net.attach([&](std::vector<std::byte> b) {
    got.assign(reinterpret_cast<const char*>(b.data()), b.size());
  });
  auto b = net.attach([](std::vector<std::byte>) {});
  ASSERT_TRUE(b->send(a->local_address(), bytes_of("hi")).is_ok());
  EXPECT_EQ(got, "hi");
}

TEST(InProcTest, AddressesAreUnique) {
  InProcNetwork net;
  auto a = net.attach([](std::vector<std::byte>) {});
  auto b = net.attach([](std::vector<std::byte>) {});
  EXPECT_NE(a->local_address(), b->local_address());
}

TEST(InProcTest, SendToUnknownEndpointFails) {
  InProcNetwork net;
  auto a = net.attach([](std::vector<std::byte>) {});
  EXPECT_FALSE(a->send("inproc:999", bytes_of("x")).is_ok());
}

TEST(InProcTest, DetachedEndpointUnreachable) {
  InProcNetwork net;
  auto a = net.attach([](std::vector<std::byte>) {});
  auto b = net.attach([](std::vector<std::byte>) {});
  std::string addr = a->local_address();
  a->close();
  EXPECT_FALSE(b->send(addr, bytes_of("x")).is_ok());
}

TEST(InProcTest, KilledEndpointBlackHoles) {
  InProcNetwork net;
  std::atomic<int> count{0};
  auto a = net.attach([&](std::vector<std::byte>) { count++; });
  auto b = net.attach([](std::vector<std::byte>) {});
  net.kill(a->local_address());
  // Sends "succeed" (the sender can't tell) but nothing arrives.
  EXPECT_TRUE(b->send(a->local_address(), bytes_of("x")).is_ok());
  EXPECT_EQ(count.load(), 0);
  EXPECT_TRUE(net.is_killed(a->local_address()));
}

TEST(InProcTest, PartitionCutsBothDirections) {
  InProcNetwork net;
  std::atomic<int> a_got{0}, b_got{0};
  auto a = net.attach([&](std::vector<std::byte>) { a_got++; });
  auto b = net.attach([&](std::vector<std::byte>) { b_got++; });
  net.partition({a->local_address()}, {b->local_address()});
  EXPECT_TRUE(b->send(a->local_address(), bytes_of("x")).is_ok());
  EXPECT_TRUE(a->send(b->local_address(), bytes_of("y")).is_ok());
  EXPECT_EQ(a_got.load(), 0);
  EXPECT_EQ(b_got.load(), 0);
  net.heal();
  EXPECT_TRUE(b->send(a->local_address(), bytes_of("x")).is_ok());
  EXPECT_EQ(a_got.load(), 1);
}

TEST(InProcTest, LossModelDropsDeterministically) {
  InProcNetwork net(/*seed=*/7);
  std::atomic<int> got{0};
  auto a = net.attach([&](std::vector<std::byte>) { got++; });
  auto b = net.attach([](std::vector<std::byte>) {});
  LinkModel lossy;
  lossy.loss = 0.5;
  net.set_link(b->local_address(), a->local_address(), lossy);
  for (int i = 0; i < 200; ++i) {
    (void)b->send(a->local_address(), bytes_of("x"));
  }
  // ~50% should survive; deterministic for the fixed seed.
  EXPECT_GT(got.load(), 60);
  EXPECT_LT(got.load(), 140);
  auto stats = net.total_stats();
  EXPECT_EQ(stats.messages + stats.dropped, 200u);
  EXPECT_EQ(stats.messages, static_cast<std::uint64_t>(got.load()));
}

TEST(InProcTest, StatsCountMessagesAndBytes) {
  InProcNetwork net;
  auto a = net.attach([](std::vector<std::byte>) {});
  auto b = net.attach([](std::vector<std::byte>) {});
  ASSERT_TRUE(b->send(a->local_address(), bytes_of("12345")).is_ok());
  ASSERT_TRUE(b->send(a->local_address(), bytes_of("678")).is_ok());
  ASSERT_TRUE(a->send(b->local_address(), bytes_of("9")).is_ok());
  auto total = net.total_stats();
  EXPECT_EQ(total.messages, 3u);
  EXPECT_EQ(total.bytes, 9u);
  EXPECT_EQ(total.dropped, 0u);
  net.reset_stats();
  EXPECT_EQ(net.total_stats().messages, 0u);
}

TEST(InProcTest, NodeTableEdges) {
  InProcNetwork net;
  std::atomic<int> a_got{0};
  auto a = net.attach([&](std::vector<std::byte>) { a_got++; });
  auto b = net.attach([](std::vector<std::byte>) {});
  std::vector<std::string> traced;
  net.set_trace_hook([&](const std::string&, const std::string& to,
                         std::size_t, bool delivered) {
    if (!delivered) traced.push_back(to);
  });

  // Malformed, foreign, non-canonical and never-attached addresses name
  // no node: each send fails and counts one drop.
  const std::vector<std::string> nowhere = {"inproc:", "inproc:x", "tcp:1",
                                            "inproc:999", "inproc:01"};
  for (const std::string& to : nowhere) {
    Status st = b->send(to, bytes_of("x"));
    EXPECT_FALSE(st.is_ok()) << to;
    EXPECT_NE(st.to_string().find("no endpoint"), std::string::npos) << to;
  }
  EXPECT_EQ(net.total_stats().dropped, nowhere.size());
  EXPECT_EQ(traced, nowhere);
  net.kill("inproc:999");  // names no node: ignored
  EXPECT_FALSE(net.is_killed("inproc:999"));

  // kill → detach → heal: a killed endpoint black-holes, stays killed
  // once detached, and after heal() is simply gone.
  const std::string addr = a->local_address();
  net.kill(addr);
  EXPECT_TRUE(b->send(addr, bytes_of("x")).is_ok());
  a->close();
  EXPECT_TRUE(net.is_killed(addr));
  EXPECT_TRUE(b->send(addr, bytes_of("x")).is_ok());
  net.heal();
  EXPECT_FALSE(net.is_killed(addr));
  EXPECT_FALSE(b->send(addr, bytes_of("x")).is_ok());
  EXPECT_EQ(a_got.load(), 0);

  // A zone-pair model wins over the default link; a per-pair override
  // wins over both.
  LinkModel cut;
  cut.cut = true;
  auto c = net.attach([](std::vector<std::byte>) {});
  std::atomic<int> d_got{0};
  auto d = net.attach([&](std::vector<std::byte>) { d_got++; });
  net.set_node_zone(c->local_address(), 0);
  net.set_node_zone(d->local_address(), 1);
  net.set_zone_link(0, 1, cut);
  ASSERT_TRUE(c->send(d->local_address(), bytes_of("x")).is_ok());
  EXPECT_EQ(d_got.load(), 0);
  ASSERT_TRUE(b->send(d->local_address(), bytes_of("x")).is_ok());
  EXPECT_EQ(d_got.load(), 1) << "a node without a zone uses the default";
  net.set_link(c->local_address(), d->local_address(), LinkModel{});
  ASSERT_TRUE(c->send(d->local_address(), bytes_of("x")).is_ok());
  EXPECT_EQ(d_got.load(), 2);
}

TEST(InProcTest, WallClockDelayedDelivery) {
  InProcNetwork net;
  LinkModel slow;
  slow.latency = 20'000'000;  // 20 ms
  net.set_default_link(slow);
  std::atomic<Nanos> arrival{0};
  auto a = net.attach([&](std::vector<std::byte>) {
    arrival.store(WallClock::instance().now());
  });
  auto b = net.attach([](std::vector<std::byte>) {});
  Nanos sent = WallClock::instance().now();
  ASSERT_TRUE(b->send(a->local_address(), bytes_of("x")).is_ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (arrival.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(arrival.load(), 0);
  EXPECT_GE(arrival.load() - sent, 15'000'000) << "latency not applied";
}

TEST(InProcTest, SchedulerHookOwnsDelivery) {
  InProcNetwork net;
  LinkModel slow;
  slow.latency = 1'000'000;
  net.set_default_link(slow);
  std::vector<std::pair<Nanos, std::function<void()>>> scheduled;
  net.set_delivery_scheduler(
      [&](Nanos delay, const std::string&, std::function<void()> fn) {
        scheduled.emplace_back(delay, std::move(fn));
      });
  std::atomic<int> got{0};
  auto a = net.attach([&](std::vector<std::byte>) { got++; });
  auto b = net.attach([](std::vector<std::byte>) {});
  ASSERT_TRUE(b->send(a->local_address(), bytes_of("xy")).is_ok());
  ASSERT_EQ(scheduled.size(), 1u);
  EXPECT_EQ(got.load(), 0) << "delivery must wait for the scheduler";
  EXPECT_GE(scheduled[0].first, 1'000'000);
  scheduled[0].second();
  EXPECT_EQ(got.load(), 1);
}

TEST(InProcTest, JitterVariesDelay) {
  InProcNetwork net(/*seed=*/42);
  LinkModel model;
  model.latency = 1'000;
  model.jitter = 100'000;
  net.set_default_link(model);
  std::vector<Nanos> delays;
  net.set_delivery_scheduler(
      [&](Nanos delay, const std::string&, std::function<void()> fn) {
        delays.push_back(delay);
        fn();
      });
  auto a = net.attach([](std::vector<std::byte>) {});
  auto b = net.attach([](std::vector<std::byte>) {});
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(b->send(a->local_address(), std::vector<std::byte>(4)).is_ok());
  }
  ASSERT_EQ(delays.size(), 50u);
  // Delays must vary (reordering fuel) and stay within [latency, latency+jitter].
  Nanos lo = *std::min_element(delays.begin(), delays.end());
  Nanos hi = *std::max_element(delays.begin(), delays.end());
  EXPECT_GE(lo, 1'000);
  EXPECT_LE(hi, 101'000);
  EXPECT_GT(hi - lo, 10'000) << "jitter had no effect";
}

TEST(InProcTest, PerByteCostAddsToDelay) {
  InProcNetwork net;
  LinkModel model;
  model.latency = 100;
  model.per_byte = 10;
  net.set_default_link(model);
  std::vector<Nanos> delays;
  net.set_delivery_scheduler(
      [&](Nanos delay, const std::string&, std::function<void()> fn) {
        delays.push_back(delay);
        fn();
      });
  auto a = net.attach([](std::vector<std::byte>) {});
  auto b = net.attach([](std::vector<std::byte>) {});
  ASSERT_TRUE(b->send(a->local_address(), std::vector<std::byte>(100)).is_ok());
  ASSERT_TRUE(b->send(a->local_address(), std::vector<std::byte>(1000)).is_ok());
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_EQ(delays[0], 100 + 100 * 10);
  EXPECT_EQ(delays[1], 100 + 1000 * 10);
}

}  // namespace
}  // namespace sdvm::net
