// Unit tests for runtime data types and single-manager behaviours that
// don't need a full cluster: microframes, SDMessages, the security
// manager's wire format, program info, id allocation strategies.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <set>

#include "runtime/cluster_info.hpp"
#include "runtime/frame.hpp"
#include "runtime/message.hpp"
#include "runtime/program.hpp"
#include "runtime/security_manager.hpp"
#include "runtime/shard_map.hpp"

namespace sdvm {
namespace {

TEST(MicroframeTest, FiringRule) {
  Microframe f(FrameId(1, 7), ProgramId(1, 1), 3, /*nparams=*/2);
  EXPECT_FALSE(f.executable());
  EXPECT_EQ(f.missing(), 2u);
  ASSERT_TRUE(f.apply(0, to_bytes(std::int64_t{10})).is_ok());
  EXPECT_FALSE(f.executable());
  ASSERT_TRUE(f.apply(1, to_bytes(std::int64_t{20})).is_ok());
  EXPECT_TRUE(f.executable());
  EXPECT_EQ(f.param_int(0), 10);
  EXPECT_EQ(f.param_int(1), 20);
}

TEST(MicroframeTest, ZeroParamFrameExecutableImmediately) {
  Microframe f(FrameId(1, 1), ProgramId(1, 1), 0, 0);
  EXPECT_TRUE(f.executable());
}

TEST(MicroframeTest, DoubleFillRejected) {
  Microframe f(FrameId(1, 1), ProgramId(1, 1), 0, 1);
  ASSERT_TRUE(f.apply(0, to_bytes(std::int64_t{1})).is_ok());
  Status st = f.apply(0, to_bytes(std::int64_t{2}));
  EXPECT_EQ(st.code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(f.param_int(0), 1) << "original value must be preserved";
}

TEST(MicroframeTest, OutOfRangeSlotRejected) {
  Microframe f(FrameId(1, 1), ProgramId(1, 1), 0, 2);
  EXPECT_EQ(f.apply(2, {}).code(), ErrorCode::kInvalidArgument);
}

TEST(MicroframeTest, SerializationPreservesPartialFill) {
  Microframe f(FrameId(3, 99), ProgramId(2, 5), 7, 3, /*prio=*/42);
  ASSERT_TRUE(f.apply(1, to_bytes(std::int64_t{-7})).is_ok());
  ByteWriter w;
  f.serialize(w);
  ByteReader r(w.bytes());
  auto back = Microframe::deserialize(r);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().id, f.id);
  EXPECT_EQ(back.value().program, f.program);
  EXPECT_EQ(back.value().thread, 7u);
  EXPECT_EQ(back.value().priority, 42);
  EXPECT_EQ(back.value().missing(), 2u);
  EXPECT_EQ(back.value().param_int(1), -7);
}

TEST(SdMessageTest, BodyRoundTrip) {
  SdMessage m;
  m.src = 3;
  m.dst = 9;
  m.src_mgr = ManagerId::kScheduling;
  m.dst_mgr = ManagerId::kCode;
  m.type = MsgType::kCodeRequest;
  m.program = ProgramId(3, 1);
  m.seq = 12345;
  m.reply_to = 99;
  m.payload = to_bytes(std::int64_t{-1});

  auto body = m.serialize_body();
  auto back = SdMessage::deserialize_body(3, 9, body);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().src_mgr, ManagerId::kScheduling);
  EXPECT_EQ(back.value().dst_mgr, ManagerId::kCode);
  EXPECT_EQ(back.value().type, MsgType::kCodeRequest);
  EXPECT_EQ(back.value().program, ProgramId(3, 1));
  EXPECT_EQ(back.value().seq, 12345u);
  EXPECT_EQ(back.value().reply_to, 99u);
  EXPECT_EQ(back.value().payload, to_bytes(std::int64_t{-1}));
}

TEST(SdMessageTest, TruncatedBodyRejected) {
  SdMessage m;
  m.type = MsgType::kHeartbeat;
  auto body = m.serialize_body();
  body.resize(body.size() / 2);
  EXPECT_FALSE(SdMessage::deserialize_body(1, 2, body).is_ok());
}

SdMessage sample_message() {
  SdMessage m;
  m.src = 1;
  m.dst = 2;
  m.src_mgr = m.dst_mgr = ManagerId::kScheduling;
  m.type = MsgType::kHelpRequest;
  m.seq = 7;
  m.payload = to_bytes(std::int64_t{42});
  return m;
}

/// A standalone manager's counter, read through a registry of its own.
std::uint64_t security_counter(SecurityManager& m, const std::string& name) {
  metrics::MetricsRegistry registry;
  m.register_metrics(registry);
  return registry.snapshot().counter(name);
}

TEST(SecurityManagerTest, PlaintextRoundTrip) {
  SiteConfig cfg;
  cfg.encrypt = false;
  SecurityManager a(cfg), b(cfg);
  a.set_local_site(1);
  b.set_local_site(2);
  auto wire = a.protect(sample_message());
  auto back = b.unprotect(wire);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value().type, MsgType::kHelpRequest);
  EXPECT_EQ(back.value().src, 1u);
  EXPECT_EQ(back.value().dst, 2u);
}

TEST(SecurityManagerTest, EncryptedRoundTrip) {
  SiteConfig cfg;
  cfg.encrypt = true;
  cfg.cluster_password = "pw";
  SecurityManager a(cfg), b(cfg);
  a.set_local_site(1);
  b.set_local_site(2);
  auto wire = a.protect(sample_message());
  auto back = b.unprotect(wire);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value().payload, to_bytes(std::int64_t{42}));
  EXPECT_EQ(security_counter(a, "sec.sealed"), 1u);
  EXPECT_EQ(security_counter(b, "sec.opened"), 1u);
}

TEST(SecurityManagerTest, EncryptedPayloadNotVisibleOnWire) {
  SiteConfig cfg;
  cfg.encrypt = true;
  cfg.cluster_password = "pw";
  SecurityManager a(cfg);
  a.set_local_site(1);
  SdMessage m = sample_message();
  m.payload = std::vector<std::byte>(32, std::byte{0xAB});
  auto wire = a.protect(m);
  int count = 0;
  for (auto b : wire) count += (b == std::byte{0xAB});
  EXPECT_LT(count, 8) << "payload pattern leaked through encryption";
}

TEST(SecurityManagerTest, WrongPasswordRejected) {
  SiteConfig good;
  good.encrypt = true;
  good.cluster_password = "right";
  SiteConfig bad = good;
  bad.cluster_password = "wrong";
  SecurityManager a(good), b(bad);
  a.set_local_site(1);
  b.set_local_site(2);
  auto wire = a.protect(sample_message());
  EXPECT_FALSE(b.unprotect(wire).is_ok());
  EXPECT_EQ(security_counter(b, "sec.rejected"), 1u);
}

TEST(SecurityManagerTest, PlaintextRejectedOnEncryptedCluster) {
  SiteConfig plain;
  plain.encrypt = false;
  SiteConfig enc;
  enc.encrypt = true;
  SecurityManager a(plain), b(enc);
  a.set_local_site(1);
  b.set_local_site(2);
  auto wire = a.protect(sample_message());
  EXPECT_FALSE(b.unprotect(wire).is_ok());
}

TEST(SecurityManagerTest, TamperedWireRejected) {
  SiteConfig cfg;
  cfg.encrypt = true;
  SecurityManager a(cfg), b(cfg);
  a.set_local_site(1);
  b.set_local_site(2);
  auto wire = a.protect(sample_message());
  wire[wire.size() - 3] ^= std::byte{0x01};
  EXPECT_FALSE(b.unprotect(wire).is_ok());
}

TEST(SecurityManagerTest, ShortFrameRejected) {
  SiteConfig cfg;
  SecurityManager a(cfg);
  EXPECT_FALSE(a.unprotect(std::vector<std::byte>(4)).is_ok());
}

/// Protects sample_message() as `src` -> `dst` in a forked child with a
/// fresh manager, the way one daemon seals its first message, and returns
/// the wire frame. Every child starts from the same parent state.
std::vector<std::byte> protect_in_child(SiteId src, SiteId dst) {
  int fds[2];
  if (pipe(fds) != 0) return {};
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    SiteConfig cfg;
    cfg.encrypt = true;
    cfg.cluster_password = "pw";
    SecurityManager m(cfg);
    m.set_local_site(src);
    SdMessage msg = sample_message();
    msg.src = src;
    msg.dst = dst;
    const auto wire = m.protect(msg);
    const bool ok = write(fds[1], wire.data(), wire.size()) ==
                    static_cast<ssize_t>(wire.size());
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  std::vector<std::byte> wire;
  std::byte buf[256];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    wire.insert(wire.end(), buf, buf + n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return wire;
}

TEST(SecurityManagerTest, OppositeDirectionsNeverShareKeystream) {
  // Two daemons each seal their first message, with the same body, to the
  // other. Equal ciphertexts would mean a reused ChaCha20 keystream.
  const auto a_to_b = protect_in_child(1, 2);
  const auto b_to_a = protect_in_child(2, 1);
  constexpr std::size_t kHeader = 10, kNonce = 12, kTag = 16;
  ASSERT_GT(a_to_b.size(), kHeader + kNonce + kTag);
  ASSERT_EQ(a_to_b.size(), b_to_a.size());
  const auto ciphertext = [&](const std::vector<std::byte>& wire) {
    return std::vector<std::byte>(
        wire.begin() + static_cast<std::ptrdiff_t>(kHeader + kNonce),
        wire.end() - static_cast<std::ptrdiff_t>(kTag));
  };
  EXPECT_NE(ciphertext(a_to_b), ciphertext(b_to_a));
}

TEST(SecurityManagerTest, ReflectedFrameRejected) {
  // A's frame to B, with src and dst swapped, replayed back at A.
  SiteConfig cfg;
  cfg.encrypt = true;
  cfg.cluster_password = "pw";
  SecurityManager a(cfg);
  a.set_local_site(1);
  auto wire = a.protect(sample_message());
  std::swap_ranges(wire.begin() + 2, wire.begin() + 6, wire.begin() + 6);
  EXPECT_FALSE(a.unprotect(wire).is_ok());
  EXPECT_EQ(security_counter(a, "sec.rejected"), 1u);
}

TEST(ProgramInfoTest, RoundTripAndLookup) {
  ProgramInfo info;
  info.id = ProgramId(4, 9);
  info.name = "primes";
  info.home_site = 4;
  info.thread_names = {"entry", "round", "test", "merge"};
  info.args = {100, 10, 5};
  ByteWriter w;
  info.serialize(w);
  ByteReader r(w.bytes());
  auto back = ProgramInfo::deserialize(r);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().name, "primes");
  EXPECT_EQ(back.value().args.size(), 3u);
  auto tid = back.value().thread_by_name("test");
  ASSERT_TRUE(tid.has_value());
  EXPECT_EQ(*tid, 2u);
  EXPECT_FALSE(back.value().thread_by_name("nope").has_value());
}

TEST(NativeRegistryTest, RegisterFindClear) {
  auto& reg = NativeRegistry::instance();
  bool ran = false;
  reg.register_fn("prog-x", "t1", [&ran](Context&) { ran = true; });
  auto fn = reg.find("prog-x", "t1");
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(reg.find("prog-x", "t2"), nullptr);
  EXPECT_EQ(reg.find("prog-y", "t1"), nullptr);
  reg.clear_program("prog-x");
  EXPECT_EQ(reg.find("prog-x", "t1"), nullptr);
}

TEST(SiteInfoTest, SerializationRoundTrip) {
  SiteInfo s;
  s.id = 12;
  s.address = "127.0.0.1:9999";
  s.name = "worker-12";
  s.platform = "hpux-parisc";
  s.speed = 2.5;
  s.load.queued_frames = 7;
  s.load.executed_total = 1234;
  s.version = 42;
  s.alive = false;
  s.successor = 3;
  ByteWriter w;
  s.serialize(w);
  ByteReader r(w.bytes());
  auto back = SiteInfo::deserialize(r);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().id, 12u);
  EXPECT_EQ(back.value().platform, "hpux-parisc");
  EXPECT_DOUBLE_EQ(back.value().speed, 2.5);
  EXPECT_EQ(back.value().load.queued_frames, 7u);
  EXPECT_EQ(back.value().version, 42u);
  EXPECT_FALSE(back.value().alive);
  EXPECT_EQ(back.value().successor, 3u);
}

TEST(ShardMapTest, ShardOfIsStableAndInRange) {
  // shard_of must be a pure function of the address — every site computes
  // the same shard with no coordination — and always land in range.
  for (std::uint64_t v : {1ull, 2ull, 0x1234'5678ull, (1ull << 40) + 17,
                          ~0ull}) {
    GlobalAddress a{v};
    std::uint32_t s = shard_of(a);
    EXPECT_LT(s, kNumShards);
    EXPECT_EQ(s, shard_of(a));
  }
}

TEST(ShardMapTest, RendezvousTargetDeterministicAcrossViewOrder) {
  // Two sites with the same membership view must agree on every shard's
  // target regardless of the order their view happens to enumerate in.
  std::vector<SiteId> view = {5, 2, 9, 14, 7};
  std::vector<SiteId> shuffled = {14, 7, 2, 5, 9};
  for (std::uint32_t s = 0; s < kNumShards; ++s) {
    EXPECT_EQ(shard_target(s, view), shard_target(s, shuffled)) << s;
  }
}

TEST(ShardMapTest, RendezvousRemovalOnlyMovesVictimsShards) {
  // Consistent hashing's defining property: removing one site only moves
  // the shards whose argmax it was; everything else keeps its target.
  std::vector<SiteId> before = {1, 2, 3, 4, 5, 6};
  for (SiteId removed : before) {
    std::vector<SiteId> after;
    for (SiteId id : before) {
      if (id != removed) after.push_back(id);
    }
    for (std::uint32_t s = 0; s < kNumShards; ++s) {
      SiteId t0 = shard_target(s, before);
      SiteId t1 = shard_target(s, after);
      if (t0 != removed) {
        EXPECT_EQ(t1, t0) << "shard " << s << " moved although its target "
                          << t0 << " survived removal of " << removed;
      } else {
        EXPECT_NE(t1, removed);
      }
    }
  }
}

TEST(ShardMapTest, ShardTargetsMatchFromScratchThroughChurn) {
  // Seeded joins, leaves and crashes over ids 1..300. After every step the
  // incrementally kept targets must equal shard_target() recomputed from
  // scratch, and a join must cost at most one weight evaluation per shard.
  std::mt19937 rng(21);
  ShardTargets targets;
  std::set<SiteId> live = {3, 7, 12};
  for (SiteId id : live) targets.add(id);
  auto view = [&live] {
    return std::vector<SiteId>(live.begin(), live.end());
  };
  int joins = 0;
  int leaves = 0;
  int crashes = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t evals_before = targets.weight_evals();
    // 70 % joins, 15 % leaves, 15 % crashes: ~170 members at equilibrium.
    const unsigned op = rng() % 20;
    if (op < 14 || live.size() < 2) {
      const SiteId id = 1 + rng() % 300;
      // The caller keeps the view, so only a new member is added.
      if (live.insert(id).second) targets.add(id);
      ++joins;
      EXPECT_LE(targets.weight_evals() - evals_before, kNumShards);
    } else if (op < 17) {
      // Graceful leave of a random member.
      auto it = live.begin();
      std::advance(it, rng() % live.size());
      const SiteId id = *it;
      std::uint32_t held = 0;
      for (std::uint32_t s = 0; s < kNumShards; ++s) {
        if (targets.target(s) == id) ++held;
      }
      live.erase(it);
      targets.remove(id, view());
      ++leaves;
      // Only the leaver's shards are recomputed, over the survivors.
      EXPECT_LE(targets.weight_evals() - evals_before, held * live.size());
    } else {
      // Crash of a shard holder: the worst case, which forces a recompute.
      const SiteId id = targets.target(rng() % kNumShards);
      live.erase(id);
      targets.remove(id, view());
      ++crashes;
    }
    const std::vector<SiteId> now = view();
    for (std::uint32_t s = 0; s < kNumShards; ++s) {
      ASSERT_EQ(targets.target(s), shard_target(s, now))
          << "step " << step << " shard " << s;
    }
  }
  EXPECT_GT(joins, 2000);
  EXPECT_GT(leaves, 400);
  EXPECT_GT(crashes, 400);
}

TEST(ShardMapTest, ShardHandoffRoundTrip) {
  ShardHandoff h;
  h.shard = 9;
  h.epoch = 77;
  h.entries.push_back(ShardDirEntry{GlobalAddress{0xABCD}, 3, ProgramId(2)});
  h.entries.push_back(
      ShardDirEntry{GlobalAddress{0x1234'5678}, 11, ProgramId(5)});
  ByteWriter w;
  h.serialize(w);
  ByteReader r(w.bytes());
  auto back = ShardHandoff::deserialize(r);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().shard, 9u);
  EXPECT_EQ(back.value().epoch, 77u);
  ASSERT_EQ(back.value().entries.size(), 2u);
  EXPECT_EQ(back.value().entries[1].addr, GlobalAddress{0x1234'5678});
  EXPECT_EQ(back.value().entries[1].owner, 11u);
  EXPECT_EQ(back.value().entries[1].program, ProgramId(5));
}

TEST(ShardMapTest, ShardRegisterAndStaleRoundTrip) {
  ShardRegister reg{GlobalAddress{42}, ProgramId(3), 8};
  ByteWriter w1;
  reg.serialize(w1);
  ByteReader r1(w1.bytes());
  auto reg2 = ShardRegister::deserialize(r1);
  ASSERT_TRUE(reg2.is_ok());
  EXPECT_EQ(reg2.value().addr, GlobalAddress{42});
  EXPECT_EQ(reg2.value().program, ProgramId(3));
  EXPECT_EQ(reg2.value().owner, 8u);

  ShardStale st{12, 4, 19};
  ByteWriter w2;
  st.serialize(w2);
  ByteReader r2(w2.bytes());
  auto st2 = ShardStale::deserialize(r2);
  ASSERT_TRUE(st2.is_ok());
  EXPECT_EQ(st2.value().shard, 12u);
  EXPECT_EQ(st2.value().holder, 4u);
  EXPECT_EQ(st2.value().epoch, 19u);
}

TEST(ShardMapTest, ShardRecoverReplyRoundTrip) {
  ShardRecoverReply rep;
  rep.shard = 1;
  rep.epoch = 5;
  rep.entries.push_back(ShardDirEntry{GlobalAddress{7}, 2, ProgramId(1)});
  ByteWriter w;
  rep.serialize(w);
  ByteReader r(w.bytes());
  auto back = ShardRecoverReply::deserialize(r);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().shard, 1u);
  EXPECT_EQ(back.value().epoch, 5u);
  ASSERT_EQ(back.value().entries.size(), 1u);
  EXPECT_EQ(back.value().entries[0].owner, 2u);
}

TEST(ShardMapTest, ShardRoutedRequestRoundTrip) {
  ShardRoutedRequest req;
  req.addr = GlobalAddress{0xDEAD'BEEF};
  req.shard = shard_of(req.addr);
  req.epoch = 123;
  ByteWriter w;
  req.serialize(w);
  ByteReader r(w.bytes());
  auto back = ShardRoutedRequest::deserialize(r);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().addr, GlobalAddress{0xDEAD'BEEF});
  EXPECT_EQ(back.value().shard, req.shard);
  EXPECT_EQ(back.value().epoch, 123u);
}

}  // namespace
}  // namespace sdvm
