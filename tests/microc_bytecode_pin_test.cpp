// Pins the exact bytes the MicroC compiler emits.
//
// A compiled Program is what travels between sites and what the decoder,
// the cycle cost model and the simulator's virtual time are derived from,
// so any change to code generation shows up here as a changed SHA-256 of
// Program::serialize(). Two sets are pinned:
//
//   * every MicroC microthread of the bundled applications, compiled the
//     way the runtime's code manager compiles them (name = thread name);
//   * every examples/programs/*.mc corpus program (name = file name).
//
// A deliberate code-generation change must update the digests below and
// say why; an accidental one fails here before it reaches a golden trace.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/fibonacci.hpp"
#include "apps/matmul.hpp"
#include "apps/nqueens.hpp"
#include "apps/pipeline.hpp"
#include "apps/primes.hpp"
#include "crypto/sha256.hpp"
#include "microc/compiler.hpp"

namespace sdvm::microc {
namespace {

namespace fs = std::filesystem;

using DigestTable = std::map<std::string, std::string>;

// SHA-256 of Program::serialize() per "<program>/<thread>".
const DigestTable kAppThreadDigests = {
    {"fib/entry",
     "af0c52461dd416e4d198e7d84571a73717f6ebd49db042656f3ba59284d7483e"},
    {"fib/fib",
     "039213973fc63f70de646dd81ce3f0512e7aa4f715025421f72de0b439f75cbb"},
    {"fib/join",
     "afa5f253e9731b332445e65370e738f4b7424ec361d45f1504e0115f42e7fbe4"},
    {"fib/report",
     "d389427edaf7d0121ac3a9905d8255f5be10a86e73425a8a748e0ad85e3345c1"},
    {"matmul/block",
     "d6a177055863049ff29651cfa012aa8c2370fd53e2c3011b535f105b21cc0099"},
    {"matmul/check",
     "0f3161d7c85ecdfe6a8781be9f836bcf821c94e5e18c2078d9f7b10faf9e5aff"},
    {"matmul/entry",
     "d6b89fbaab74646adb080c5941411b255abd1e887faf37587154d794f24038ed"},
    {"nqueens/entry",
     "0517a38d0a51be81c822704f7f035b9af3213c4d3bcd811a832c16aee511f8d5"},
    {"nqueens/join",
     "8fe5eb02e2c3cad1eef064753aab3fbd6cd2277c37556a33cec7551695d84fdf"},
    {"nqueens/node",
     "9902835e66d4ed444766db000b3a053e0b379a1761e68c51ea3ac8f323a8a2c4"},
    {"nqueens/report",
     "d389427edaf7d0121ac3a9905d8255f5be10a86e73425a8a748e0ad85e3345c1"},
    {"pipeline/entry",
     "aaedff58a9f8ee852edad218fb9c0c2b28a9947f5471429ef968ba4daf5a7851"},
    {"pipeline/sink",
     "1df9cd6fb854f8a132e0ea3882cd153af5ff59432895d40b58bda8ef560c7ce0"},
    {"pipeline/stage",
     "77553ed28dbe4870e08b08a63f44f5521264afe2bba4188bb704fcfc56985cfa"},
    {"primes/entry",
     "f8d49b6a282bf6a05ef61cb523ec286927acef2f0c8e84b6484002d2d33e016d"},
    {"primes/merge",
     "31274dba9ea398c12b2b9752c8db3480c70d26fd02ecb507e4752587655bec49"},
    {"primes/round",
     "0a580cd3b51c4af81f35310d38d78f8884610a922383a7df324bc645db0550c2"},
    {"primes/test",
     "c628c2510ff4b558baefb621fc5a7796eac033a4b35cc040418e207bcef28df4"},
};

// SHA-256 of Program::serialize() per corpus file name.
const DigestTable kCorpusDigests = {
    {"bitmix.mc",
     "fe004f54914854716802687a0e8ed45a7429b7cc49a190aeac57cfad4d22e4be"},
    {"collatz.mc",
     "e1da41650c14e348634c4534f55451ea7a557e26e207c60b3de21f3e74f6d2fb"},
    {"gcd.mc",
     "e3d7609cff2a64058a634341dd0ae03b65ea83e2660b813b6bc8c9fc09a216d4"},
    {"logic.mc",
     "aa976bd6375d1e9850dfa15260181ada17a03abc0e86a18af00b616cfc18a5c1"},
    {"memory.mc",
     "970a97f9a5253f846bb6a43d8afaeb39908d436f7c89247eff098dfe6aed63b4"},
    {"primes.mc",
     "4574034d83536cae9861bf1913236ac3f25d46e37e110b52f50667b3e236a66e"},
    {"shadow.mc",
     "fd102cfa3d5f878ade826b1783d3a43684f4c01ebd0772d52dc0fd1accd8fc08"},
    {"spawn_chain.mc",
     "bc1541ca9b5147b87d68d2146f3f3404094327adff85917169724864b1942f66"},
    {"sum_squares.mc",
     "a68d84260d2b4accee4f8559cc471e95552bf851fce4afe8c119e0cbe58a5da3"},
};

std::string digest(const Program& p) {
  return crypto::hex(crypto::Sha256::hash(p.serialize()));
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Compares computed digests with a pinned table, naming every missing,
// extra or changed entry (with its new digest, so an intended change is
// easy to re-pin).
void expect_digests(const DigestTable& got, const DigestTable& pinned) {
  for (const auto& [name, hex] : got) {
    auto it = pinned.find(name);
    if (it == pinned.end()) {
      ADD_FAILURE() << "unpinned: {\"" << name << "\", \"" << hex << "\"},";
    } else {
      EXPECT_EQ(hex, it->second) << name << " emits different bytecode";
    }
  }
  for (const auto& [name, hex] : pinned) {
    EXPECT_TRUE(got.count(name) != 0) << "pinned but not compiled: " << name;
  }
}

TEST(MicrocBytecodePinTest, AppThreadsMatchPinnedDigests) {
  const ProgramSpec specs[] = {
      apps::make_primes_program({}),  apps::make_fib_program({}),
      apps::make_matmul_program({}),  apps::make_nqueens_program({}),
      apps::make_pipeline_program({}),
  };
  DigestTable got;
  for (const ProgramSpec& spec : specs) {
    for (const MicrothreadSpec& t : spec.threads) {
      if (t.source.empty()) continue;
      auto prog = compile(t.source, t.name);
      ASSERT_TRUE(prog.is_ok()) << spec.name << "/" << t.name << ": "
                                << prog.status().to_string();
      got[spec.name + "/" + t.name] = digest(prog.value());
    }
  }
  expect_digests(got, kAppThreadDigests);
}

TEST(MicrocBytecodePinTest, CorpusMatchesPinnedDigests) {
  DigestTable got;
  for (const auto& entry : fs::directory_iterator(SDVM_MICROC_CORPUS_DIR)) {
    if (entry.path().extension() != ".mc") continue;
    const std::string name = entry.path().filename().string();
    CompileError err;
    auto prog = compile(slurp(entry.path()), name, &err);
    ASSERT_TRUE(prog.is_ok()) << name << ": " << err.to_string();
    got[name] = digest(prog.value());
  }
  expect_digests(got, kCorpusDigests);
}

}  // namespace
}  // namespace sdvm::microc
