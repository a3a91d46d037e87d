// Fault-tolerant TCP deployment: resilient transport behaviour (retry,
// reconnect, unreachable verdicts), socket-level fault injection, frame
// robustness, and the headline scenario — SIGKILL one of three real
// daemons mid-program and watch the survivors detect the death, recover
// from the last committed checkpoint and still produce the right answer.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include "test_util.hpp"

#include "api/program_builder.hpp"
#include "api/tcp_node.hpp"
#include "apps/primes.hpp"
#include "net/faulty.hpp"
#include "net/tcp.hpp"
#include "runtime/context.hpp"

extern char** environ;

namespace sdvm {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

std::uint16_t port_of(const std::string& address) {
  auto colon = address.rfind(':');
  return static_cast<std::uint16_t>(std::stoi(address.substr(colon + 1)));
}

bool wait_until(const std::function<bool()>& cond, int timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

/// Raw client socket to 127.0.0.1:port — for feeding the listener frames
/// the transport itself would never send.
int raw_connect(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// --- parse_address hardening ------------------------------------------------

TEST(TcpFaultTest, MalformedAddressesRejectedWithoutThrowing) {
  auto a = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
  ASSERT_TRUE(a.is_ok());
  const char* bad[] = {
      "",            "127.0.0.1",      "127.0.0.1:",      ":80",
      "127.0.0.1:x", "127.0.0.1:80x", "127.0.0.1:65536", "127.0.0.1:99999",
      "127.0.0.1:-1"};
  for (const char* addr : bad) {
    Status st = a.value()->send(addr, bytes_of("x"));
    EXPECT_FALSE(st.is_ok()) << "accepted bad address: " << addr;
    EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << addr;
  }
  a.value()->close();
}

// --- reconnect / unreachable lifecycle -------------------------------------

TEST(TcpFaultTest, ReconnectsAfterPeerRestart) {
  std::atomic<int> received{0};
  auto first = net::TcpTransport::listen(0, [&](std::vector<std::byte>) {
    received++;
  });
  ASSERT_TRUE(first.is_ok());
  std::uint16_t port = port_of(first.value()->local_address());
  const std::string addr = first.value()->local_address();

  net::TcpTransport::Options opt;
  opt.backoff_base = 2'000'000;  // 2 ms
  opt.backoff_max = 20'000'000;
  opt.max_attempts = 50;  // patient: the restart must fit in the budget
  auto sender = net::TcpTransport::listen(0, [](std::vector<std::byte>) {},
                                          opt);
  ASSERT_TRUE(sender.is_ok());

  ASSERT_TRUE(sender.value()->send(addr, bytes_of("warm-up")).is_ok());
  ASSERT_TRUE(wait_until([&] { return received.load() >= 1; }, 5000));

  // Restart the peer on the same port. Frames written into the dying
  // connection can be lost (TCP has no application acks), so keep sending
  // until one lands on the reincarnation.
  first.value()->close();
  std::atomic<int> received2{0};
  auto second = net::TcpTransport::listen(port, [&](std::vector<std::byte>) {
    received2++;
  });
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();

  bool delivered = wait_until(
      [&] {
        (void)sender.value()->send(addr, bytes_of("probe"));
        return received2.load() >= 1;
      },
      10'000);
  EXPECT_TRUE(delivered) << "no frame reached the restarted peer";
  EXPECT_GE(sender.value()->stats().reconnects, 1u);
  EXPECT_FALSE(sender.value()->peer_state(addr).unreachable);
  sender.value()->close();
  second.value()->close();
}

TEST(TcpFaultTest, UnreachableVerdictThenRecoveryAfterReset) {
  // Learn a port that is actually closed by binding and releasing it.
  auto probe = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
  ASSERT_TRUE(probe.is_ok());
  std::uint16_t port = port_of(probe.value()->local_address());
  const std::string addr = probe.value()->local_address();
  probe.value()->close();

  net::TcpTransport::Options opt;
  opt.max_attempts = 3;
  opt.backoff_base = 1'000'000;
  opt.backoff_max = 4'000'000;
  opt.unreachable_cooldown = 3600 * kNanosPerSecond;  // only reset_peer clears
  auto sender = net::TcpTransport::listen(0, [](std::vector<std::byte>) {},
                                          opt);
  ASSERT_TRUE(sender.is_ok());

  std::atomic<int> unreachable_hooks{0};
  std::string hook_addr;
  std::mutex hook_mu;
  sender.value()->set_unreachable_hook([&](const std::string& a) {
    std::lock_guard lk(hook_mu);
    hook_addr = a;
    unreachable_hooks++;
  });

  ASSERT_TRUE(sender.value()->send(addr, bytes_of("void")).is_ok());
  ASSERT_TRUE(wait_until(
      [&] { return sender.value()->peer_state(addr).unreachable; }, 10'000));
  EXPECT_GE(unreachable_hooks.load(), 1);
  {
    std::lock_guard lk(hook_mu);
    EXPECT_EQ(hook_addr, addr);
  }
  EXPECT_EQ(sender.value()->send(addr, bytes_of("still-void")).code(),
            ErrorCode::kUnavailable);

  // The peer comes back; the runtime clears the verdict and traffic flows.
  std::atomic<int> received{0};
  auto revived = net::TcpTransport::listen(port, [&](std::vector<std::byte>) {
    received++;
  });
  ASSERT_TRUE(revived.is_ok()) << revived.status().to_string();
  sender.value()->reset_peer(addr);
  ASSERT_TRUE(sender.value()->send(addr, bytes_of("hello-again")).is_ok());
  EXPECT_TRUE(wait_until([&] { return received.load() >= 1; }, 5000));
  sender.value()->close();
  revived.value()->close();
}

// --- inbound frame robustness ----------------------------------------------

TEST(TcpFaultTest, OversizedFrameCountedAndConnectionDropped) {
  std::atomic<int> received{0};
  auto a = net::TcpTransport::listen(0, [&](std::vector<std::byte>) {
    received++;
  });
  ASSERT_TRUE(a.is_ok());

  int fd = raw_connect(port_of(a.value()->local_address()));
  ASSERT_GE(fd, 0);
  std::uint32_t huge = 256u * 1024 * 1024;  // over the 64 MiB frame cap
  ASSERT_EQ(::send(fd, &huge, sizeof(huge), 0),
            static_cast<ssize_t>(sizeof(huge)));
  ASSERT_TRUE(wait_until(
      [&] { return a.value()->stats().frames_oversized >= 1; }, 5000));
  ::close(fd);

  // The listener survives and keeps serving well-formed traffic.
  auto b = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(
      b.value()->send(a.value()->local_address(), bytes_of("sane")).is_ok());
  EXPECT_TRUE(wait_until([&] { return received.load() >= 1; }, 5000));
  a.value()->close();
  b.value()->close();
}

TEST(TcpFaultTest, GarbageFramesDoNotKillAliveNode) {
  TcpNode::Options opt;
  opt.site.name = "hardened";
  auto node = TcpNode::create(opt);
  ASSERT_TRUE(node.is_ok());
  node.value()->bootstrap();

  int fd = raw_connect(port_of(node.value()->address()));
  ASSERT_GE(fd, 0);
  // A framed payload of junk (decode failure path), then a truncated
  // header (connection torn mid-frame).
  std::uint32_t len = 16;
  std::uint8_t junk[16];
  for (std::size_t i = 0; i < sizeof(junk); ++i) {
    junk[i] = static_cast<std::uint8_t>(0xC0 + i);
  }
  ASSERT_EQ(::send(fd, &len, sizeof(len), 0),
            static_cast<ssize_t>(sizeof(len)));
  ASSERT_EQ(::send(fd, junk, sizeof(junk), 0),
            static_cast<ssize_t>(sizeof(junk)));
  std::uint8_t half_header[2] = {0xFF, 0xFF};
  ASSERT_EQ(::send(fd, half_header, sizeof(half_header), 0),
            static_cast<ssize_t>(sizeof(half_header)));
  ::close(fd);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Still introspectable and still able to run a program.
  auto status = node.value()->status();
  ASSERT_TRUE(status.is_ok()) << status.status().to_string();
  auto spec = ProgramBuilder("still-alive")
                  .thread("entry", "out(7); exit(0);")
                  .entry("entry")
                  .build();
  auto pid = node.value()->start_program(spec);
  ASSERT_TRUE(pid.is_ok());
  auto code = node.value()->wait_program(pid.value(), 30 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
}

// --- fault injection --------------------------------------------------------

TEST(FaultyTransportTest, SeverAndHeal) {
  std::atomic<int> received{0};
  auto dst = net::TcpTransport::listen(0, [&](std::vector<std::byte>) {
    received++;
  });
  ASSERT_TRUE(dst.is_ok());
  const std::string addr = dst.value()->local_address();

  auto inner = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
  ASSERT_TRUE(inner.is_ok());
  net::FaultyTransport::Options fopt;
  fopt.seed = 42;
  net::FaultyTransport faulty(std::move(inner).value(), fopt);

  faulty.sever(addr, true);
  Status st = faulty.send(addr, bytes_of("lost"));
  EXPECT_EQ(st.code(), ErrorCode::kUnavailable);
  EXPECT_GE(faulty.stats().severed, 1u);
  EXPECT_EQ(received.load(), 0);

  faulty.sever(addr, false);
  ASSERT_TRUE(faulty.send(addr, bytes_of("healed")).is_ok());
  EXPECT_TRUE(wait_until([&] { return received.load() >= 1; }, 5000));
  faulty.close();
  dst.value()->close();
}

TEST(FaultyTransportTest, DropPatternIsDeterministicPerSeed) {
  auto run = [&](std::uint64_t seed) {
    auto dst = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
    EXPECT_TRUE(dst.is_ok());
    auto inner = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
    EXPECT_TRUE(inner.is_ok());
    net::FaultyTransport::Options fopt;
    fopt.seed = seed;
    fopt.base.drop = 0.5;
    net::FaultyTransport faulty(std::move(inner).value(), fopt);
    for (int i = 0; i < 200; ++i) {
      (void)faulty.send(dst.value()->local_address(),
                        bytes_of(std::to_string(i)));
    }
    auto stats = faulty.stats();
    faulty.close();
    dst.value()->close();
    return stats;
  };
  auto s1 = run(7);
  auto s2 = run(7);
  EXPECT_EQ(s1.dropped, s2.dropped) << "same seed must drop the same frames";
  EXPECT_EQ(s1.forwarded, s2.forwarded);
  EXPECT_GT(s1.dropped, 0u);
  EXPECT_GT(s1.forwarded, 0u);
}

TEST(FaultyTransportTest, DelayedFramesStillArrive) {
  std::atomic<int> received{0};
  auto dst = net::TcpTransport::listen(0, [&](std::vector<std::byte>) {
    received++;
  });
  ASSERT_TRUE(dst.is_ok());
  auto inner = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
  ASSERT_TRUE(inner.is_ok());
  net::FaultyTransport::Options fopt;
  fopt.seed = 3;
  fopt.base.delay = 20'000'000;  // 20 ms
  net::FaultyTransport faulty(std::move(inner).value(), fopt);
  ASSERT_TRUE(
      faulty.send(dst.value()->local_address(), bytes_of("later")).is_ok());
  EXPECT_GE(faulty.stats().delayed, 1u);
  EXPECT_TRUE(wait_until([&] { return received.load() >= 1; }, 5000));
  faulty.close();
  dst.value()->close();
}

TEST(FaultyTransportTest, KindRuleHitsOnlyMatchingFrames) {
  std::mutex mu;
  std::vector<std::string> got;
  auto dst = net::TcpTransport::listen(0, [&](std::vector<std::byte> b) {
    std::lock_guard lk(mu);
    got.emplace_back(reinterpret_cast<const char*>(b.data()), b.size());
  });
  ASSERT_TRUE(dst.is_ok());
  auto inner = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
  ASSERT_TRUE(inner.is_ok());
  net::FaultyTransport::Options fopt;
  fopt.seed = 5;
  // Classify frames by their first byte so the rule is easy to aim.
  fopt.classifier = [](std::span<const std::byte> frame) {
    return frame.empty() ? -1 : static_cast<int>(frame.front());
  };
  net::FaultyTransport faulty(std::move(inner).value(), fopt);
  net::FaultRule severed;
  severed.sever = true;
  faulty.set_kind_rule('A', severed);

  EXPECT_EQ(faulty.send(dst.value()->local_address(), bytes_of("Attack"))
                .code(),
            ErrorCode::kUnavailable);
  ASSERT_TRUE(
      faulty.send(dst.value()->local_address(), bytes_of("Benign")).is_ok());
  ASSERT_TRUE(wait_until(
      [&] {
        std::lock_guard lk(mu);
        return got.size() >= 1;
      },
      5000));
  std::lock_guard lk(mu);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "Benign");
  faulty.close();
  dst.value()->close();
}

TEST(TcpNodeFaultTest, ClusterRunsThroughInjectedLatency) {
  TcpNode::Options opt1;
  opt1.site.name = "steady";
  auto n1 = TcpNode::create(opt1);
  ASSERT_TRUE(n1.is_ok());
  n1.value()->bootstrap();

  TcpNode::Options opt2;
  opt2.site.name = "jittery";
  net::FaultyTransport::Options faults;
  faults.seed = 11;
  faults.base.delay = 1'000'000;         // 1 ms on every frame
  faults.base.delay_jitter = 2'000'000;  // + up to 2 ms, seeded
  opt2.faults = faults;
  auto n2 = TcpNode::create(opt2);
  ASSERT_TRUE(n2.is_ok());
  ASSERT_NE(n2.value()->faulty_transport(), nullptr);
  ASSERT_TRUE(
      n2.value()
          ->join_cluster(n1.value()->address(), 15 * kNanosPerSecond)
          .is_ok());

  apps::PrimesParams params;
  params.p = 20;
  params.width = 8;
  params.work_mult = 0;
  auto pid = n1.value()->start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());
  auto code = n1.value()->wait_program(pid.value(), 60 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  {
    std::lock_guard lk(n1.value()->site().lock());
    testing_util::expect_primes_verdict(
        n1.value()->site().io().outputs(pid.value()), 20, 8);
  }
  EXPECT_GT(n2.value()->faulty_transport()->stats().delayed, 0u);
}

// --- join resilience --------------------------------------------------------

TEST(TcpJoinTest, JoinToClosedPortReportsRefused) {
  auto probe = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
  ASSERT_TRUE(probe.is_ok());
  std::string dead_addr = probe.value()->local_address();
  probe.value()->close();

  TcpNode::Options opt;
  opt.transport.max_attempts = 2;
  opt.transport.backoff_base = 1'000'000;
  opt.transport.backoff_max = 2'000'000;
  auto node = TcpNode::create(opt);
  ASSERT_TRUE(node.is_ok());
  Status joined = node.value()->join_cluster(dead_addr, kNanosPerSecond);
  ASSERT_FALSE(joined.is_ok());
  EXPECT_NE(joined.to_string().find("refused"), std::string::npos)
      << joined.to_string();
}

TEST(TcpJoinTest, JoinSucceedsWhenContactStartsLate) {
  // Reserve a port, release it, and only bring the contact up after the
  // joiner has already been retrying for a while.
  auto probe = net::TcpTransport::listen(0, [](std::vector<std::byte>) {});
  ASSERT_TRUE(probe.is_ok());
  std::uint16_t port = port_of(probe.value()->local_address());
  std::string contact_addr = probe.value()->local_address();
  probe.value()->close();

  TcpNode::Options jopt;
  jopt.site.name = "early-bird";
  jopt.transport.backoff_base = 2'000'000;
  jopt.transport.backoff_max = 50'000'000;
  jopt.transport.unreachable_cooldown = 50'000'000;
  auto joiner = TcpNode::create(jopt);
  ASSERT_TRUE(joiner.is_ok());

  std::unique_ptr<TcpNode> contact;
  std::thread late_starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    TcpNode::Options copt;
    copt.site.name = "late-contact";
    copt.port = port;
    auto n = TcpNode::create(copt);
    ASSERT_TRUE(n.is_ok()) << n.status().to_string();
    contact = std::move(n).value();
    contact->bootstrap();
  });
  Status joined = joiner.value()->join_cluster(contact_addr,
                                              20 * kNanosPerSecond);
  late_starter.join();
  EXPECT_TRUE(joined.is_ok()) << joined.to_string();
}

// --- the headline scenario --------------------------------------------------

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

TEST(TcpKillTest, KillDaemonMidProgramSurvivorsRecover) {
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

  // Third site: a real sdvmd process we can SIGKILL — no destructors, no
  // sign-off, exactly what a power cut looks like to the survivors.
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

  apps::PrimesParams params;
  params.p = 60;
  params.width = 6;
  params.work_mult = 0;
  params.spin = 300'000;  // real work: several seconds across 3 sites
  auto pid = home.value()->start_program(apps::make_primes_program(params));
  ASSERT_TRUE(pid.is_ok());

  // Let at least one coordinated checkpoint commit while all 3 are alive.
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

  // Survivors must detect the death, roll back to the committed epoch and
  // still finish with the correct verdict.
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

  // Transport health surfaced through the unified introspection path.
  auto status = home.value()->status();
  ASSERT_TRUE(status.is_ok());
  EXPECT_GT(status.value().metrics.counter("net.frames_sent"), 0u);
  EXPECT_GT(status.value().metrics.counter("net.bytes_sent"), 0u);
}

}  // namespace
}  // namespace sdvm
