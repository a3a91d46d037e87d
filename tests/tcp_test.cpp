// TCP transport unit tests and full-daemon TCP integration: the paper's
// actual deployment — daemons on sockets, length-framed SDMessages,
// sign-on over the wire.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "test_util.hpp"

#include "api/program_builder.hpp"
#include "api/tcp_node.hpp"
#include "apps/primes.hpp"
#include "net/tcp.hpp"
#include "runtime/context.hpp"

namespace sdvm {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

TEST(TcpTransportTest, RoundTrip) {
  std::atomic<int> received{0};
  std::string got;
  std::mutex mu;
  auto a = net::TcpTransport::listen(0, [&](std::vector<std::byte> b) {
    std::lock_guard lk(mu);
    got.assign(reinterpret_cast<const char*>(b.data()), b.size());
    received++;
  });
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  auto b = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
  ASSERT_TRUE(b.is_ok());

  ASSERT_TRUE(
      b.value()->send(a.value()->local_address(), bytes_of("ping")).is_ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (received.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(received.load(), 1);
  std::lock_guard lk(mu);
  EXPECT_EQ(got, "ping");
  a.value()->close();
  b.value()->close();
}

TEST(TcpTransportTest, ManyMessagesOrdered) {
  std::mutex mu;
  std::vector<int> order;
  auto a = net::TcpTransport::listen(0, [&](std::vector<std::byte> b) {
    std::lock_guard lk(mu);
    order.push_back(std::stoi(
        std::string(reinterpret_cast<const char*>(b.data()), b.size())));
  });
  ASSERT_TRUE(a.is_ok());
  auto b = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
  ASSERT_TRUE(b.is_ok());

  constexpr int kCount = 500;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(b.value()
                    ->send(a.value()->local_address(),
                           bytes_of(std::to_string(i)))
                    .is_ok());
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard lk(mu);
      if (order.size() == kCount) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard lk(mu);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  a.value()->close();
  b.value()->close();
}

TEST(TcpTransportTest, LargeFrame) {
  std::atomic<std::size_t> got_size{0};
  auto a = net::TcpTransport::listen(0, [&](std::vector<std::byte> b) {
    got_size.store(b.size());
  });
  ASSERT_TRUE(a.is_ok());
  auto b = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
  ASSERT_TRUE(b.is_ok());

  std::vector<std::byte> big(3 * 1024 * 1024, std::byte{0x42});
  ASSERT_TRUE(b.value()->send(a.value()->local_address(), big).is_ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (got_size.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(got_size.load(), big.size());
  a.value()->close();
  b.value()->close();
}

TEST(TcpTransportTest, SendToDeadAddressFails) {
  net::TcpTransport::Options opt;
  opt.max_attempts = 2;
  opt.backoff_base = 1'000'000;  // 1 ms
  opt.backoff_max = 2'000'000;
  auto a = net::TcpTransport::listen(0, [](std::vector<std::byte>) {}, opt);
  ASSERT_TRUE(a.is_ok());
  // Port 1 on localhost is virtually guaranteed closed. Sends are queued,
  // so the first one succeeds; the unreachable verdict arrives once the
  // writer thread exhausts its retry budget, and later sends fast-fail.
  ASSERT_TRUE(a.value()->send("127.0.0.1:1", bytes_of("x")).is_ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!a.value()->peer_state("127.0.0.1:1").unreachable &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(a.value()->peer_state("127.0.0.1:1").unreachable);
  Status st = a.value()->send("127.0.0.1:1", bytes_of("y"));
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), ErrorCode::kUnavailable);
  auto stats = a.value()->stats();
  EXPECT_GE(stats.peers_unreachable, 1u);
  EXPECT_GE(stats.frames_dropped, 1u);
  a.value()->close();
}

TEST(TcpTransportTest, BadAddressRejected) {
  auto a = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
  ASSERT_TRUE(a.is_ok());
  EXPECT_FALSE(a.value()->send("not-an-address", bytes_of("x")).is_ok());
  EXPECT_FALSE(a.value()->send("999.0.0.1:80", bytes_of("x")).is_ok());
  a.value()->close();
}

TEST(TcpNodeTest, TwoDaemonClusterRunsProgram) {
  TcpNode::Options opt1;
  opt1.site.name = "alpha";
  auto n1 = TcpNode::create(opt1);
  ASSERT_TRUE(n1.is_ok()) << n1.status().to_string();
  n1.value()->bootstrap();

  TcpNode::Options opt2;
  opt2.site.name = "beta";
  auto n2 = TcpNode::create(opt2);
  ASSERT_TRUE(n2.is_ok());
  Status joined =
      n2.value()->join_cluster(n1.value()->address(), 10 * kNanosPerSecond);
  ASSERT_TRUE(joined.is_ok()) << joined.to_string();

  apps::PrimesParams params;
  params.p = 20;
  params.width = 8;
  params.work_mult = 0;
  auto pid = n1.value()->start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = n1.value()->wait_program(pid.value(), 30 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();

  std::lock_guard lk(n1.value()->site().lock());
  {
    auto out = n1.value()->site().io().outputs(pid.value());
    ASSERT_FALSE(out.empty());
    EXPECT_GE(std::stoll(out.back()), 20);
  }
  // The second daemon really participated over TCP.
  EXPECT_GT(testing_util::counter(n1.value()->site(), "msg.sent"), 0u);
}

TEST(TcpNodeTest, EncryptedTcpCluster) {
  TcpNode::Options opt1;
  opt1.site.encrypt = true;
  opt1.site.cluster_password = "wire-secret";
  auto n1 = TcpNode::create(opt1);
  ASSERT_TRUE(n1.is_ok());
  n1.value()->bootstrap();

  TcpNode::Options opt2 = opt1;
  auto n2 = TcpNode::create(opt2);
  ASSERT_TRUE(n2.is_ok());
  ASSERT_TRUE(
      n2.value()
          ->join_cluster(n1.value()->address(), 10 * kNanosPerSecond)
          .is_ok());

  auto spec = ProgramBuilder("hello")
                  .thread("entry", "out(99); exit(0);")
                  .entry("entry")
                  .build();
  auto pid = n1.value()->start_program(spec);
  ASSERT_TRUE(pid.is_ok());
  auto code = n1.value()->wait_program(pid.value(), 30 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
}

TEST(TcpNodeTest, WrongPasswordCannotJoin) {
  TcpNode::Options opt1;
  opt1.site.encrypt = true;
  opt1.site.cluster_password = "right";
  auto n1 = TcpNode::create(opt1);
  ASSERT_TRUE(n1.is_ok());
  n1.value()->bootstrap();

  TcpNode::Options opt2;
  opt2.site.encrypt = true;
  opt2.site.cluster_password = "wrong";
  auto n2 = TcpNode::create(opt2);
  ASSERT_TRUE(n2.is_ok());
  Status joined =
      n2.value()->join_cluster(n1.value()->address(), kNanosPerSecond);
  EXPECT_FALSE(joined.is_ok()) << "join must fail with a bad password";
}

}  // namespace
}  // namespace sdvm
