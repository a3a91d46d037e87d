// Golden-corpus equivalence tests for the MicroC toolchain.
//
// Every examples/programs/*.mc program is compiled once and run twice:
// on the optimized execution path the runtime ships (verified decode,
// superinstruction fusion, computed-goto direct threading) and on the
// unoptimized legacy byte-walking interpreter, the checked reference.
// Both runs must produce the exact same externally visible behavior and
// the exact same cycle count (superinstruction fusion is required to be
// cost-invariant, since cycles are the sim-mode cost model).

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "microc/compiler.hpp"
#include "microc/vm.hpp"

namespace sdvm::microc {
namespace {

namespace fs = std::filesystem;

// Deterministic scripted handler: every intrinsic call is appended to a
// behavior trace, and value-producing intrinsics return values derived
// from a fixed counter so spawn/alloc results are reproducible.
class RecordingHandler : public IntrinsicHandler {
 public:
  std::vector<std::string> trace;

  std::int64_t param(std::int64_t index) override {
    note("param", index);
    return 10 + index * 3;
  }
  std::int64_t num_params() override {
    note("nparams", 0);
    return 2;
  }
  std::int64_t spawn(const std::string& thread_name,
                     std::int64_t nparams) override {
    trace.push_back("spawn " + thread_name + "/" + std::to_string(nparams));
    return next_handle_++;
  }
  std::int64_t spawn_prio(const std::string& thread_name, std::int64_t nparams,
                          std::int64_t priority) override {
    trace.push_back("spawnp " + thread_name + "/" + std::to_string(nparams) +
                    " prio=" + std::to_string(priority));
    return next_handle_++;
  }
  void send(std::int64_t frame_addr, std::int64_t slot,
            std::int64_t value) override {
    trace.push_back("send " + std::to_string(frame_addr) + "[" +
                    std::to_string(slot) + "]=" + std::to_string(value));
  }
  std::int64_t alloc(std::int64_t nwords) override {
    note("alloc", nwords);
    std::int64_t base = static_cast<std::int64_t>(memory_.size());
    memory_.resize(memory_.size() + static_cast<std::size_t>(nwords), 0);
    return base;
  }
  std::int64_t load(std::int64_t addr, std::int64_t index) override {
    return memory_.at(static_cast<std::size_t>(addr + index));
  }
  void store(std::int64_t addr, std::int64_t index,
             std::int64_t value) override {
    memory_.at(static_cast<std::size_t>(addr + index)) = value;
  }
  void out(std::int64_t value) override { note("out", value); }
  void out_str(const std::string& text) override {
    trace.push_back("outs " + text);
  }
  void charge(std::int64_t cycles) override { note("charge", cycles); }
  std::int64_t self_site() override { return 7; }
  std::int64_t arg(std::int64_t index) override {
    note("arg", index);
    return 100 + index;
  }
  std::int64_t num_args() override { return 1; }
  void exit_program(std::int64_t code) override { note("exit", code); }

 private:
  void note(const char* what, std::int64_t v) {
    trace.push_back(std::string(what) + " " + std::to_string(v));
  }
  std::int64_t next_handle_ = 1000;
  std::vector<std::int64_t> memory_;
};

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(SDVM_MICROC_CORPUS_DIR)) {
    if (entry.path().extension() == ".mc") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct RunOutcome {
  std::vector<std::string> trace;
  std::uint64_t cycles = 0;
};

using VmEntry = VmResult (*)(const Program&, IntrinsicHandler&,
                             std::uint64_t);

RunOutcome run_one(const Program& prog, VmEntry run) {
  RecordingHandler handler;
  VmResult r = run(prog, handler, Vm::kDefaultStepLimit);
  EXPECT_TRUE(r.status.is_ok()) << prog.name << ": " << r.status.to_string();
  return {std::move(handler.trace), r.cycles};
}

class GoldenCorpusTest : public ::testing::TestWithParam<fs::path> {};

// "Optimized" is the decoded, fused execution path and "unoptimized" the
// legacy interpreter; the two interpreters are the dispatch modes.
TEST_P(GoldenCorpusTest, OptimizedMatchesUnoptimizedAcrossDispatchModes) {
  const fs::path path = GetParam();
  const std::string source = slurp(path);
  ASSERT_FALSE(source.empty()) << path;

  CompileError err;
  auto prog = compile(source, path.filename().string(), &err);
  ASSERT_TRUE(prog.is_ok()) << path << ": " << err.to_string();

  RunOutcome legacy = run_one(prog.value(), &Vm::run_legacy);
  RunOutcome direct = run_one(prog.value(), &Vm::run);
  ASSERT_FALSE(legacy.trace.empty()) << path << ": corpus program is silent";
  EXPECT_EQ(direct.trace, legacy.trace) << path;
  EXPECT_EQ(direct.cycles, legacy.cycles) << path;
}

std::string corpus_name(const ::testing::TestParamInfo<fs::path>& info) {
  std::string n = info.param.stem().string();
  for (char& c : n) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenCorpusTest,
                         ::testing::ValuesIn(corpus_files()), corpus_name);

TEST(GoldenCorpusTest, CorpusIsPresent) {
  // Guards against the directory_iterator silently finding nothing (e.g.
  // a bad SDVM_MICROC_CORPUS_DIR) which would skip every parameterized case.
  EXPECT_GE(corpus_files().size(), 8u);
}

}  // namespace
}  // namespace sdvm::microc
