// sdvm-mcc: the MicroC compiler as a standalone tool. Compiles a
// microthread source file (or a built-in sample) to bytecode and
// optionally runs it with stub intrinsics — handy when developing SDVM
// applications.
//
//   $ ./mcc [flags] [file.mc]
//
//   --dump-ast       print the typed AST (post-typecheck)
//   --dump-bytecode  print the bytecode disassembly
//   --no-run         compile only, skip the stub-intrinsic execution
//
// Compile errors are reported as `file:line:col: message` followed by the
// offending source line and a caret marking the column.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "microc/compiler.hpp"
#include "microc/parser.hpp"
#include "microc/typecheck.hpp"
#include "microc/vm.hpp"

using namespace sdvm;

namespace {

constexpr const char* kSample = R"(
  // Sample microthread: sum of squares below param(0).
  var n = param(0);
  var i = 1;
  var sum = 0;
  while (i < n) {
    sum = sum + i * i;
    i = i + 1;
  }
  out(sum);
)";

class StubHandler : public microc::IntrinsicHandler {
 public:
  std::int64_t param(std::int64_t i) override {
    std::printf("  [param(%lld) -> 10]\n", static_cast<long long>(i));
    return 10;
  }
  std::int64_t num_params() override { return 1; }
  std::int64_t spawn(const std::string& name, std::int64_t n) override {
    std::printf("  [spawn(\"%s\", %lld) -> frame @1000]\n", name.c_str(),
                static_cast<long long>(n));
    return 1000;
  }
  void send(std::int64_t f, std::int64_t s, std::int64_t v) override {
    std::printf("  [send(@%lld, %lld, %lld)]\n", static_cast<long long>(f),
                static_cast<long long>(s), static_cast<long long>(v));
  }
  std::int64_t alloc(std::int64_t n) override {
    heap_.emplace_back(static_cast<std::size_t>(n), 0);
    return static_cast<std::int64_t>(heap_.size() - 1);
  }
  std::int64_t load(std::int64_t a, std::int64_t i) override {
    return heap_.at(static_cast<std::size_t>(a))
        .at(static_cast<std::size_t>(i));
  }
  void store(std::int64_t a, std::int64_t i, std::int64_t v) override {
    heap_.at(static_cast<std::size_t>(a)).at(static_cast<std::size_t>(i)) = v;
  }
  void out(std::int64_t v) override {
    std::printf("  [out: %lld]\n", static_cast<long long>(v));
  }
  void out_str(const std::string& s) override {
    std::printf("  [out: \"%s\"]\n", s.c_str());
  }
  void charge(std::int64_t c) override {
    std::printf("  [charge %lld cycles]\n", static_cast<long long>(c));
  }
  std::int64_t self_site() override { return 1; }
  std::int64_t arg(std::int64_t) override { return 0; }
  std::int64_t num_args() override { return 0; }
  void exit_program(std::int64_t c) override {
    std::printf("  [exit(%lld)]\n", static_cast<long long>(c));
  }

 private:
  std::vector<std::vector<std::int64_t>> heap_;
};

/// `file:line:col: message` plus the offending line with a caret.
void print_diagnostic(const std::string& file, const std::string& source,
                      const microc::CompileError& err) {
  std::fprintf(stderr, "%s:%d:%d: error: %s\n", file.c_str(), err.line,
               err.column, err.message.c_str());
  std::istringstream ss(source);
  std::string line;
  for (int i = 0; i < err.line && std::getline(ss, line); ++i) {
  }
  if (err.line > 0 && !line.empty()) {
    std::fprintf(stderr, "  %s\n", line.c_str());
    std::string pad;
    for (int i = 1; i < err.column && i <= static_cast<int>(line.size());
         ++i) {
      pad += line[static_cast<std::size_t>(i) - 1] == '\t' ? '\t' : ' ';
    }
    std::fprintf(stderr, "  %s^\n", pad.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool dump_ast = false, dump_bytecode = false;
  bool run = true;
  std::string file;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dump-ast") == 0) {
      dump_ast = true;
    } else if (std::strcmp(argv[i], "--dump-bytecode") == 0) {
      dump_bytecode = true;
    } else if (std::strcmp(argv[i], "--no-run") == 0) {
      run = false;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: mcc [--dump-ast] [--dump-bytecode] [--no-run] "
                  "[file.mc]\n");
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", argv[i]);
      return 2;
    } else {
      file = argv[i];
    }
  }

  std::string source;
  std::string name = "sample";
  if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", file.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    source = ss.str();
    name = file;
  } else {
    source = kSample;
    std::printf("(no input file; compiling the built-in sample)\n");
  }

  microc::CompileError error;
  auto prog = microc::compile(source, name, &error);
  if (!prog.is_ok()) {
    print_diagnostic(file.empty() ? "<sample>" : file, source, error);
    return 1;
  }

  if (dump_ast) {
    // The source compiled, so the front end cannot throw here.
    microc::Unit unit = microc::parse(source);
    microc::typecheck(unit);
    std::printf("--- typed AST ---\n%s\n", microc::dump_ast(unit).c_str());
  }

  auto artifact = prog.value().serialize();
  std::printf("compiled '%s': %zu bytes of bytecode, %u locals, "
              "%zu-byte artifact\n", name.c_str(),
              prog.value().code.size(), prog.value().local_count,
              artifact.size());
  if (dump_bytecode) {
    std::printf("\n%s\n", microc::disassemble(prog.value()).c_str());
  }

  if (!run) return 0;
  std::printf("\nrunning with stub intrinsics:\n");
  StubHandler handler;
  auto result = microc::Vm::run(prog.value(), handler);
  if (!result.status.is_ok()) {
    std::fprintf(stderr, "trap: %s\n", result.status.to_string().c_str());
    return 1;
  }
  std::printf("done: %llu VM instructions executed\n",
              static_cast<unsigned long long>(result.cycles));
  return 0;
}
