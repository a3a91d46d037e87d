// Micro-benchmarks (google-benchmark) for the SDVM's hot paths: crypto
// throughput (link encryption and authentication cost per byte), SDMessage
// and microframe serialization, MicroC compile + dispatch rate, and the
// in-process fabric. These quantify the constants behind the table benches.
#include <benchmark/benchmark.h>

#include <cstring>

#include "crypto/cipher.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/sha256.hpp"
#include "microc/compiler.hpp"
#include "microc/vm.hpp"
#include "net/inproc.hpp"
#include "runtime/frame.hpp"
#include "runtime/message.hpp"

namespace {

using namespace sdvm;

void BM_Sha256(benchmark::State& state) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto digest = crypto::Sha256::hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ChaCha20(benchmark::State& state) {
  crypto::ChaCha20::Key key{};
  crypto::ChaCha20::Nonce nonce{};
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    crypto::ChaCha20::apply(key, nonce, 0, data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Poly1305(benchmark::State& state) {
  crypto::Poly1305::Key key{};
  key[0] = 1;
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto tag = crypto::Poly1305::mac(key, data);
    benchmark::DoNotOptimize(tag);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Poly1305)->Arg(64)->Arg(1024)->Arg(16384);

// One ChaCha20-Poly1305 seal and open with the security manager's 10-byte
// header as associated data.
void BM_SealOpen(benchmark::State& state) {
  auto key =
      crypto::derive_direction_key(crypto::derive_master_key("pw"), 1, 2);
  const std::vector<std::byte> header(10);
  std::vector<std::byte> plain(static_cast<std::size_t>(state.range(0)));
  crypto::ChaCha20::Nonce nonce{};
  std::uint64_t count = 0;
  for (auto _ : state) {
    std::memcpy(nonce.data() + 4, &++count, sizeof(count));
    auto sealed = crypto::seal(key, nonce, header, plain);
    auto opened = crypto::open(key, header, sealed);
    benchmark::DoNotOptimize(opened);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SealOpen)->Arg(64)->Arg(1024)->Arg(16384);

void BM_SdMessageRoundTrip(benchmark::State& state) {
  SdMessage m;
  m.src = 1;
  m.dst = 2;
  m.type = MsgType::kApplyParam;
  m.program = ProgramId(1, 1);
  m.payload.assign(static_cast<std::size_t>(state.range(0)), std::byte{7});
  for (auto _ : state) {
    auto body = m.serialize_body();
    auto back = SdMessage::deserialize_body(1, 2, body);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_SdMessageRoundTrip)->Arg(16)->Arg(256)->Arg(4096);

void BM_MicroframeRoundTrip(benchmark::State& state) {
  Microframe f(FrameId(1, 1), ProgramId(1, 1), 0,
               static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < f.params.size(); ++i) {
    (void)f.apply(i, to_bytes(std::int64_t{42}));
  }
  for (auto _ : state) {
    ByteWriter w;
    f.serialize(w);
    ByteReader r(w.bytes());
    auto back = Microframe::deserialize(r);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_MicroframeRoundTrip)->Arg(2)->Arg(8)->Arg(32);

void BM_MicroCCompile(benchmark::State& state) {
  std::string src = R"(
    var n = param(0);
    var isp = 1;
    var d = 2;
    while (d * d <= n) {
      if (n % d == 0) { isp = 0; d = n; }
      d = d + 1;
    }
    send(param(1), param(2), isp);
  )";
  for (auto _ : state) {
    auto prog = microc::compile(src, "bench");
    benchmark::DoNotOptimize(prog);
  }
}
BENCHMARK(BM_MicroCCompile);

class NullHandler : public microc::IntrinsicHandler {
 public:
  std::int64_t param(std::int64_t) override { return 104729; }
  std::int64_t num_params() override { return 3; }
  std::int64_t spawn(const std::string&, std::int64_t) override { return 1; }
  void send(std::int64_t, std::int64_t, std::int64_t) override {}
  std::int64_t alloc(std::int64_t) override { return 1; }
  std::int64_t load(std::int64_t, std::int64_t) override { return 0; }
  void store(std::int64_t, std::int64_t, std::int64_t) override {}
  void out(std::int64_t) override {}
  void out_str(const std::string&) override {}
  void charge(std::int64_t) override {}
  std::int64_t self_site() override { return 1; }
  std::int64_t arg(std::int64_t) override { return 0; }
  std::int64_t num_args() override { return 0; }
  void exit_program(std::int64_t) override {}
};

void BM_VmPrimalityTest(benchmark::State& state) {
  auto prog = microc::compile(R"(
    var n = param(0);
    var isp = 1;
    var d = 2;
    while (d * d <= n) {
      if (n % d == 0) { isp = 0; d = n; }
      d = d + 1;
    }
    send(param(1), param(2), isp);
  )", "bench");
  NullHandler handler;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    auto r = microc::Vm::run(prog.value(), handler);
    cycles = r.cycles;
    benchmark::DoNotOptimize(r);
  }
  state.counters["vm_instructions"] = static_cast<double>(cycles);
}
BENCHMARK(BM_VmPrimalityTest);

void BM_InProcSend(benchmark::State& state) {
  net::InProcNetwork net;
  std::uint64_t received = 0;
  auto a = net.attach([&](std::vector<std::byte> b) { received += b.size(); });
  auto b = net.attach([](std::vector<std::byte>) {});
  std::vector<std::byte> payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto st = b->send(a->local_address(), payload);
    benchmark::DoNotOptimize(st);
  }
  benchmark::DoNotOptimize(received);
}
BENCHMARK(BM_InProcSend)->Arg(64)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
