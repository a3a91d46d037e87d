// Deserialization robustness: every decoder that consumes network bytes
// must reject arbitrary garbage with an error — never crash, hang, or
// allocate unboundedly. Seeded random-byte sweeps over all wire decoders.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "microc/bytecode.hpp"
#include "microc/compiler.hpp"
#include "microc/vm.hpp"
#include "runtime/checkpoint_store.hpp"
#include "runtime/cluster_info.hpp"
#include "runtime/frame.hpp"
#include "runtime/message.hpp"
#include "runtime/program.hpp"
#include "runtime/security_manager.hpp"
#include "runtime/shard_map.hpp"
#include "runtime/site_status.hpp"

#include <limits>

namespace sdvm {
namespace {

std::vector<std::byte> random_bytes(Xoshiro256& rng, std::size_t max_len) {
  std::vector<std::byte> b(rng.below(max_len + 1));
  for (auto& x : b) x = std::byte{static_cast<unsigned char>(rng())};
  return b;
}

class FuzzDecodeTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzDecodeTest, SdMessageBody) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 500; ++i) {
    auto bytes = random_bytes(rng, 256);
    auto r = SdMessage::deserialize_body(1, 2, bytes);
    (void)r;  // ok or error — just never crash
  }
}

TEST_P(FuzzDecodeTest, Microframe) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 100);
  for (int i = 0; i < 500; ++i) {
    auto bytes = random_bytes(rng, 256);
    ByteReader r(bytes);
    auto f = Microframe::deserialize(r);
    (void)f;
  }
}

TEST_P(FuzzDecodeTest, ProgramInfo) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 200);
  for (int i = 0; i < 500; ++i) {
    auto bytes = random_bytes(rng, 256);
    ByteReader r(bytes);
    auto info = ProgramInfo::deserialize(r);
    (void)info;
  }
}

TEST_P(FuzzDecodeTest, SiteInfo) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 300);
  for (int i = 0; i < 500; ++i) {
    auto bytes = random_bytes(rng, 256);
    ByteReader r(bytes);
    try {
      auto info = SiteInfo::deserialize(r);
      (void)info;
    } catch (const DecodeError&) {
      // SiteInfo::deserialize may throw through LoadStats; both outcomes
      // are acceptable, crashing is not.
    }
  }
}

TEST_P(FuzzDecodeTest, MetricsSnapshot) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 700);
  for (int i = 0; i < 500; ++i) {
    auto bytes = random_bytes(rng, 256);
    ByteReader r(bytes);
    auto s = metrics::MetricsSnapshot::deserialize(r);
    (void)s;  // Result-based: ok or kCorrupt, never a crash or throw
  }
}

TEST_P(FuzzDecodeTest, SiteStatus) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 800);
  for (int i = 0; i < 500; ++i) {
    auto bytes = random_bytes(rng, 512);
    ByteReader r(bytes);
    auto s = SiteStatus::deserialize(r);
    (void)s;
  }
}

TEST_P(FuzzDecodeTest, SiteStatusBitflips) {
  // Start from VALID kMetricsReply payload bytes and flip random bits —
  // closer to real wire corruption than pure noise.
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 900);
  SiteStatus good;
  good.id = 7;
  good.name = "victim";
  good.platform = "x86-linux";
  good.cluster_size = 3;
  good.active_programs = {ProgramId(1), ProgramId(2)};
  good.ledger[ProgramId(1)] = AccountEntry{3, 30, 300};
  good.metrics.add_counter("proc.executed", 99);
  metrics::Histogram h;
  h.record(5'000);
  good.metrics.add_histogram("proc.runtime_ns", h);
  ByteWriter w;
  good.serialize(w);
  auto baseline = w.take();
  for (int i = 0; i < 500; ++i) {
    auto bytes = baseline;
    int flips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < flips; ++f) {
      std::size_t pos = rng.below(bytes.size());
      bytes[pos] ^= std::byte{static_cast<unsigned char>(1u << rng.below(8))};
    }
    ByteReader r(bytes);
    auto s = SiteStatus::deserialize(r);
    (void)s;
  }
}

TEST_P(FuzzDecodeTest, BytecodeArtifact) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 400);
  for (int i = 0; i < 300; ++i) {
    auto bytes = random_bytes(rng, 512);
    auto p = microc::Program::deserialize(bytes);
    (void)p;
  }
}

// The nastier case: structurally VALID artifacts with garbage code bytes
// must trap in the VM, not crash it.
class NullHandler : public microc::IntrinsicHandler {
 public:
  std::int64_t param(std::int64_t) override { return 0; }
  std::int64_t num_params() override { return 0; }
  std::int64_t spawn(const std::string&, std::int64_t) override { return 0; }
  void send(std::int64_t, std::int64_t, std::int64_t) override {}
  std::int64_t alloc(std::int64_t) override { return 0; }
  std::int64_t load(std::int64_t, std::int64_t) override { return 0; }
  void store(std::int64_t, std::int64_t, std::int64_t) override {}
  void out(std::int64_t) override {}
  void out_str(const std::string&) override {}
  void charge(std::int64_t) override {}
  std::int64_t self_site() override { return 0; }
  std::int64_t arg(std::int64_t) override { return 0; }
  std::int64_t num_args() override { return 0; }
  void exit_program(std::int64_t) override {}
};

TEST_P(FuzzDecodeTest, VmSurvivesGarbageCode) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 500);
  NullHandler handler;
  for (int i = 0; i < 200; ++i) {
    microc::Program prog;
    prog.name = "garbage";
    prog.code = random_bytes(rng, 128);
    prog.local_count = static_cast<std::uint16_t>(rng.below(8));
    prog.string_pool = {"a", "b"};
    auto result = microc::Vm::run(prog, handler, /*step_limit=*/10'000);
    (void)result;  // trap or clean return, never UB
  }
}

// --- MicroC front-end fuzzing ----------------------------------------------
// The lexer/parser/typechecker must reject (or accept) any input with a
// clean diagnostic — never crash, hang, or trip ASan. compile() is the
// full pipeline: lex -> parse -> typecheck -> emit.

void compile_must_not_crash(const std::string& src) {
  auto r = microc::compile(src, "fuzz");
  if (r.is_ok()) {
    // Anything that compiles must also decode and run cleanly (step-capped).
    NullHandler h;
    (void)microc::Vm::run(r.value(), h, /*step_limit=*/20'000);
  }
}

TEST_P(FuzzDecodeTest, CompilerSurvivesRandomSource) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  for (int i = 0; i < 200; ++i) {
    std::string src(rng.below(200), ' ');
    for (auto& c : src) {
      c = static_cast<char>(32 + rng.below(95));  // printable ASCII
    }
    compile_must_not_crash(src);
  }
}

TEST_P(FuzzDecodeTest, CompilerSurvivesTokenSoup) {
  // Valid tokens in random order — exercises the parser far deeper than
  // byte noise, which the lexer usually rejects first.
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 1100);
  static const char* kAtoms[] = {
      "var", "if", "else", "while", "for", "break", "continue", "return",
      "x",   "y",  "0",    "1",     "42",  "(",     ")",        "{",
      "}",   ";",  ",",    "+",     "-",   "*",     "/",        "%",
      "==",  "!=", "<",    "<=",    "&&",  "||",    "!",        "~",
      "=",   "out", "param", "spawn", "\"s\"", "<<", ">>",      "&"};
  for (int i = 0; i < 200; ++i) {
    std::string src;
    int n = 1 + static_cast<int>(rng.below(60));
    for (int k = 0; k < n; ++k) {
      src += kAtoms[rng.below(std::size(kAtoms))];
      src += ' ';
    }
    compile_must_not_crash(src);
  }
}

TEST_P(FuzzDecodeTest, CompilerSurvivesMutatedValidSource) {
  // Start from a real program and corrupt it — hits error paths deep in
  // the typechecker/lowerer that pure noise never reaches.
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 1200);
  const std::string seed_src =
      "var n = param(0);\n"
      "var s = 0;\n"
      "for (var i = 1; i <= n; i = i + 1) {\n"
      "  if (i % 2 == 0) { s = s + i; } else { s = s - 1; }\n"
      "  while (s > 100) { s = s / 2; }\n"
      "}\n"
      "out(s);\n";
  for (int i = 0; i < 200; ++i) {
    std::string src = seed_src;
    int edits = 1 + static_cast<int>(rng.below(6));
    for (int e = 0; e < edits; ++e) {
      std::size_t pos = rng.below(src.size());
      switch (rng.below(3)) {
        case 0: src[pos] = static_cast<char>(32 + rng.below(95)); break;
        case 1: src.erase(pos, 1); break;
        default:
          src.insert(pos, 1, static_cast<char>(32 + rng.below(95)));
          break;
      }
    }
    compile_must_not_crash(src);
  }
}

TEST_P(FuzzDecodeTest, CompilerSurvivesDeepNesting) {
  // Parser recursion must be depth-bounded: thousands of parens/braces
  // end in a ParseError, not a C++ stack overflow.
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 1300);
  for (int i = 0; i < 20; ++i) {
    std::size_t depth = 100 + rng.below(4000);
    char open = rng.below(2) == 0 ? '(' : '{';
    char close = open == '(' ? ')' : '}';
    std::string src = open == '(' ? "out(" : "if (1) ";
    src.append(depth, open);
    if (open == '(') src += '1';
    src.append(depth, close);
    if (open == '(') src += ");";
    compile_must_not_crash(src);
  }
}

TEST_P(FuzzDecodeTest, SecurityManagerSurvivesGarbageWire) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 600);
  SiteConfig enc;
  enc.encrypt = true;
  SiteConfig plain;
  plain.encrypt = false;
  SecurityManager sealed(enc), open_mgr(plain);
  sealed.set_local_site(1);
  open_mgr.set_local_site(1);
  for (int i = 0; i < 300; ++i) {
    auto bytes = random_bytes(rng, 300);
    (void)sealed.unprotect(bytes);
    (void)open_mgr.unprotect(bytes);
  }
}

// --- checkpoint durability formats ----------------------------------------

DurableEpoch sample_epoch() {
  DurableEpoch snap;
  snap.pid = ProgramId(42);
  snap.epoch = 3;
  snap.info.id = ProgramId(42);
  snap.info.name = "fuzz";
  snap.info.home_site = 1;
  snap.shards[1] = {std::byte{0xAB}, std::byte{0xCD}};
  snap.shards[2] = {std::byte{0x01}};
  snap.sources.emplace_back(MicrothreadId(7), "void main() {}");
  snap.io_log.push_back(IoRecord{3, 1, "hello"});
  return snap;
}

TEST_P(FuzzDecodeTest, CheckpointUnframeGarbage) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  for (int i = 0; i < 500; ++i) {
    auto bytes = random_bytes(rng, 256);
    auto r = CheckpointStore::unframe(bytes, ProgramId(42));
    (void)r;  // ok (astronomically unlikely) or kCorrupt — never a crash
  }
}

TEST_P(FuzzDecodeTest, CheckpointFrameBitflips) {
  // Flips inside a valid framed epoch file must be caught by the CRC (or
  // the magic/length/pid checks); a file that still unframes must carry
  // the untouched payload, since the CRC covers every payload byte.
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 1100);
  DurableEpoch snap = sample_epoch();
  ByteWriter w;
  snap.serialize(w);
  auto payload = w.take();
  auto file = CheckpointStore::frame(snap.pid, snap.epoch, payload);
  for (int i = 0; i < 500; ++i) {
    auto bytes = file;
    int flips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < flips; ++f) {
      std::size_t pos = rng.below(bytes.size());
      bytes[pos] ^= std::byte{static_cast<unsigned char>(1u << rng.below(8))};
    }
    auto r = CheckpointStore::unframe(bytes, snap.pid);
    if (r.is_ok()) {
      EXPECT_EQ(r.value(), payload)
          << "unframe accepted a corrupted payload";
    }
  }
}

TEST_P(FuzzDecodeTest, DurableEpochGarbage) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 1200);
  for (int i = 0; i < 500; ++i) {
    auto bytes = random_bytes(rng, 512);
    ByteReader r(bytes);
    auto snap = DurableEpoch::deserialize(r);
    (void)snap;
  }
}

TEST_P(FuzzDecodeTest, CheckpointStoreSurvivesGarbageFiles) {
  // A store whose directory is full of garbage under plausible names must
  // neither crash nor return a bogus epoch: everything is counted as
  // corrupt and skipped.
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 1300);
  auto backend = std::make_shared<MemStateStore>();
  ProgramId pid(42);
  for (std::uint64_t e = 1; e <= 4; ++e) {
    auto garbage = random_bytes(rng, 300);
    ASSERT_TRUE(
        backend->put(CheckpointStore::epoch_file_name(pid, e), garbage)
            .is_ok());
  }
  auto garbage = random_bytes(rng, 64);
  ASSERT_TRUE(
      backend->put(CheckpointStore::manifest_name(pid), garbage).is_ok());

  CheckpointStore store(backend);
  auto loaded = store.load_latest(pid);
  EXPECT_FALSE(loaded.is_ok());
  EXPECT_GT(store.corrupt_skipped(), 0u);
  EXPECT_TRUE(store.recoverable().empty());
}

TEST_P(FuzzDecodeTest, CheckpointManifestCorruptionFallsBackToScan) {
  // A valid epoch file with a trashed manifest must still load: the store
  // scans epoch files newest-to-oldest when the manifest lies.
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 1400);
  auto backend = std::make_shared<MemStateStore>();
  CheckpointStore store(backend);
  DurableEpoch snap = sample_epoch();
  ASSERT_TRUE(store.persist(snap).is_ok());

  auto garbage = random_bytes(rng, 64);
  ASSERT_TRUE(
      backend->put(CheckpointStore::manifest_name(snap.pid), garbage)
          .is_ok());

  auto loaded = store.load_latest(snap.pid);
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value().epoch, snap.epoch);
  EXPECT_EQ(loaded.value().shards.size(), snap.shards.size());
}

// --- sharded-directory wire formats ---------------------------------------

TEST_P(FuzzDecodeTest, ShardPayloadGarbage) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 1500);
  for (int i = 0; i < 500; ++i) {
    auto bytes = random_bytes(rng, 256);
    {
      ByteReader r(bytes);
      (void)ShardLeaseAnnounce::deserialize(r);
    }
    {
      ByteReader r(bytes);
      (void)ShardHandoff::deserialize(r);
    }
    {
      ByteReader r(bytes);
      (void)ShardRecover::deserialize(r);
    }
    {
      ByteReader r(bytes);
      (void)ShardRecoverReply::deserialize(r);
    }
    {
      ByteReader r(bytes);
      (void)ShardRegister::deserialize(r);
    }
    {
      ByteReader r(bytes);
      (void)ShardStale::deserialize(r);
    }
    {
      ByteReader r(bytes);
      (void)ShardRoutedRequest::deserialize(r);
    }
  }
}

TEST_P(FuzzDecodeTest, ShardPayloadTruncation) {
  // Every strict prefix of a valid payload must decode to an error — the
  // entry-count guards must never read past the buffer or allocate from a
  // length the bytes cannot back.
  ShardHandoff h;
  h.shard = 5;
  h.epoch = 12;
  for (std::uint64_t v = 1; v <= 8; ++v) {
    h.entries.push_back(
        ShardDirEntry{GlobalAddress{v << 20}, static_cast<SiteId>(v),
                      ProgramId(v)});
  }
  ByteWriter w;
  h.serialize(w);
  auto full = w.take();
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::vector<std::byte> cut(full.begin(),
                               full.begin() + static_cast<long>(len));
    ByteReader r(cut);
    auto d = ShardHandoff::deserialize(r);
    EXPECT_FALSE(d.is_ok()) << "truncation at " << len << " decoded";
  }
  ByteReader r(full);
  auto d = ShardHandoff::deserialize(r);
  ASSERT_TRUE(d.is_ok());
  EXPECT_EQ(d.value().entries.size(), h.entries.size());
}

TEST_P(FuzzDecodeTest, ShardPayloadRejectsBadShardIds) {
  // Structurally valid payloads naming a shard >= kNumShards must be
  // rejected at decode time: a bad index would otherwise reach the
  // fixed-size per-shard tables.
  for (std::uint32_t bad :
       {kNumShards, kNumShards + 1, 0xFFFFu, 0xFFFFFFFFu}) {
    {
      ByteWriter w;
      ShardRecover rec;
      rec.shard = bad;
      rec.epoch = 1;
      rec.serialize(w);
      auto bytes = w.take();
      ByteReader r(bytes);
      EXPECT_FALSE(ShardRecover::deserialize(r).is_ok()) << bad;
    }
    {
      ByteWriter w;
      ShardStale st;
      st.shard = bad;
      st.holder = 3;
      st.epoch = 9;
      st.serialize(w);
      auto bytes = w.take();
      ByteReader r(bytes);
      EXPECT_FALSE(ShardStale::deserialize(r).is_ok()) << bad;
    }
    {
      ByteWriter w;
      ShardLeaseAnnounce ann;
      ann.entries.push_back({bad, 2, 7});
      ann.serialize(w);
      auto bytes = w.take();
      ByteReader r(bytes);
      EXPECT_FALSE(ShardLeaseAnnounce::deserialize(r).is_ok()) << bad;
    }
    {
      ByteWriter w;
      ShardRoutedRequest req;
      req.addr = GlobalAddress{1};
      req.shard = bad;
      req.epoch = 2;
      req.serialize(w);
      auto bytes = w.take();
      ByteReader r(bytes);
      EXPECT_FALSE(ShardRoutedRequest::deserialize(r).is_ok()) << bad;
    }
  }
}

TEST_P(FuzzDecodeTest, ShardEpochOverflowRoundTrips) {
  // Lease epochs near the top of the u64 range must survive the wire
  // unmangled — overflow handling is the merge rule's job, never the
  // codec's.
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  ShardLeaseAnnounce ann;
  ann.entries.push_back({3, 11, top});
  ann.entries.push_back({4, 12, top - 1});
  ByteWriter w;
  ann.serialize(w);
  auto bytes = w.take();
  ByteReader r(bytes);
  auto d = ShardLeaseAnnounce::deserialize(r);
  ASSERT_TRUE(d.is_ok());
  EXPECT_EQ(d.value().entries[0].epoch, top);
  EXPECT_EQ(d.value().entries[1].epoch, top - 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDecodeTest, ::testing::Range(1, 7));

}  // namespace
}  // namespace sdvm
