// Tests for the MicroC compiler + VM: lexing, parsing, codegen semantics,
// intrinsic dispatch, artifact serialization, and arithmetic equivalence
// against a direct C++ evaluation.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <vector>

#include <algorithm>

#include "common/rng.hpp"
#include "microc/compiler.hpp"
#include "microc/lexer.hpp"
#include "microc/parser.hpp"
#include "microc/vm.hpp"

namespace sdvm::microc {
namespace {

/// Records intrinsic traffic; implements a tiny in-memory global heap so
/// alloc/load/store can be tested standalone.
class MockHandler : public IntrinsicHandler {
 public:
  std::vector<std::int64_t> params;
  std::vector<std::int64_t> args;
  std::vector<std::int64_t> outputs;
  std::vector<std::string> text_outputs;
  std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>> sends;
  std::vector<std::pair<std::string, std::int64_t>> spawns;
  std::int64_t charged = 0;
  std::int64_t site_id = 17;

  std::int64_t param(std::int64_t i) override {
    return params.at(static_cast<std::size_t>(i));
  }
  std::int64_t num_params() override {
    return static_cast<std::int64_t>(params.size());
  }
  std::int64_t spawn(const std::string& name, std::int64_t n) override {
    spawns.emplace_back(name, n);
    return 1000 + static_cast<std::int64_t>(spawns.size());
  }
  void send(std::int64_t f, std::int64_t s, std::int64_t v) override {
    sends.emplace_back(f, s, v);
  }
  std::int64_t alloc(std::int64_t nwords) override {
    std::int64_t addr = next_addr_;
    next_addr_ += 1;
    heap_[addr].resize(static_cast<std::size_t>(nwords), 0);
    return addr;
  }
  std::int64_t load(std::int64_t addr, std::int64_t idx) override {
    return heap_.at(addr).at(static_cast<std::size_t>(idx));
  }
  void store(std::int64_t addr, std::int64_t idx, std::int64_t v) override {
    heap_.at(addr).at(static_cast<std::size_t>(idx)) = v;
  }
  void out(std::int64_t v) override { outputs.push_back(v); }
  void out_str(const std::string& s) override { text_outputs.push_back(s); }
  void charge(std::int64_t c) override { charged += c; }
  std::int64_t self_site() override { return site_id; }
  std::int64_t arg(std::int64_t i) override {
    return args.at(static_cast<std::size_t>(i));
  }
  std::int64_t num_args() override {
    return static_cast<std::int64_t>(args.size());
  }
  void exit_program(std::int64_t code) override {
    exit_calls.emplace_back(code);
  }
  std::vector<std::int64_t> exit_calls;

 private:
  std::int64_t next_addr_ = 5000;
  std::map<std::int64_t, std::vector<std::int64_t>> heap_;
};

/// Compiles and runs a snippet, returning the handler for inspection.
MockHandler run_ok(const std::string& src,
                   std::vector<std::int64_t> params = {},
                   std::vector<std::int64_t> args = {}) {
  auto prog = compile(src, "test");
  EXPECT_TRUE(prog.is_ok()) << prog.status().to_string() << "\nsource:\n"
                            << src;
  MockHandler h;
  h.params = std::move(params);
  h.args = std::move(args);
  auto result = Vm::run(prog.value(), h);
  EXPECT_TRUE(result.status.is_ok()) << result.status.to_string();
  return h;
}

TEST(LexerTest, TokenKinds) {
  auto toks = lex("var x = 10; // comment\nif (x <= 2) { out(x); }");
  EXPECT_EQ(toks.front().kind, Tok::kVar);
  EXPECT_EQ(toks.back().kind, Tok::kEof);
}

TEST(LexerTest, TracksLineNumbers) {
  auto toks = lex("var a = 1;\nvar b = 2;");
  // Second 'var' is on line 2.
  auto it = std::find_if(toks.begin() + 1, toks.end(),
                         [](const Token& t) { return t.kind == Tok::kVar; });
  ASSERT_NE(it, toks.end());
  EXPECT_EQ(it->line, 2);
}

TEST(LexerTest, StringEscapes) {
  auto toks = lex(R"(outs("a\nb\"c");)");
  ASSERT_GE(toks.size(), 3u);
  EXPECT_EQ(toks[2].kind, Tok::kString);
  EXPECT_EQ(toks[2].text, "a\nb\"c");
}

TEST(LexerTest, RejectsBadCharacter) {
  EXPECT_THROW(lex("var x = $;"), LexError);
}

TEST(LexerTest, RejectsUnterminatedString) {
  EXPECT_THROW(lex("outs(\"oops"), LexError);
}

TEST(LexerTest, RejectsOverflowLiteral) {
  EXPECT_THROW(lex("var x = 99999999999999999999;"), LexError);
}

TEST(LexerTest, BlockComments) {
  auto h = run_ok("/* setup \n multi-line */ out(5); /* tail */");
  EXPECT_EQ(h.outputs, std::vector<std::int64_t>{5});
}

TEST(CompilerTest, RejectsUndeclaredVariable) {
  auto r = compile("out(y);", "t");
  EXPECT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("undeclared"), std::string::npos);
}

TEST(CompilerTest, RejectsRedeclaration) {
  EXPECT_FALSE(compile("var x = 1; var x = 2;", "t").is_ok());
}

TEST(CompilerTest, RejectsUnknownFunction) {
  EXPECT_FALSE(compile("frobnicate(1);", "t").is_ok());
}

TEST(CompilerTest, RejectsWrongArity) {
  EXPECT_FALSE(compile("send(1, 2);", "t").is_ok());
}

TEST(CompilerTest, RejectsVoidInExpression) {
  EXPECT_FALSE(compile("var x = out(1);", "t").is_ok());
}

TEST(CompilerTest, RejectsStrayStringLiteral) {
  EXPECT_FALSE(compile("var x = \"hello\";", "t").is_ok());
}

TEST(CompilerTest, ReportsLineNumbers) {
  auto r = compile("var a = 1;\nvar b = a +;\n", "t");
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(VmTest, Arithmetic) {
  auto h = run_ok("out(2 + 3 * 4 - 10 / 2);");
  EXPECT_EQ(h.outputs, std::vector<std::int64_t>{9});
}

TEST(VmTest, Precedence) {
  auto h = run_ok("out(1 + 2 == 3); out(1 | 2 ^ 3 & 2); out(1 << 3 >> 1);");
  EXPECT_EQ(h.outputs, (std::vector<std::int64_t>{1, 1 | (2 ^ (3 & 2)), 4}));
}

TEST(VmTest, UnaryOperators) {
  auto h = run_ok("out(-5); out(!0); out(!7); out(~0);");
  EXPECT_EQ(h.outputs, (std::vector<std::int64_t>{-5, 1, 0, -1}));
}

TEST(VmTest, Comparisons) {
  auto h = run_ok("out(3 < 5); out(5 <= 5); out(6 > 7); out(2 >= 2); "
                  "out(4 == 4); out(4 != 4);");
  EXPECT_EQ(h.outputs, (std::vector<std::int64_t>{1, 1, 0, 1, 1, 0}));
}

TEST(VmTest, ShortCircuitAnd) {
  // Division by zero on the rhs must not execute when lhs is false.
  auto h = run_ok("var x = 0; out(x != 0 && 10 / x > 1);");
  EXPECT_EQ(h.outputs, std::vector<std::int64_t>{0});
}

TEST(VmTest, ShortCircuitOr) {
  auto h = run_ok("var x = 0; out(x == 0 || 10 / x > 1);");
  EXPECT_EQ(h.outputs, std::vector<std::int64_t>{1});
}

TEST(VmTest, LogicalResultNormalized) {
  auto h = run_ok("out(7 && 9); out(0 || 5);");
  EXPECT_EQ(h.outputs, (std::vector<std::int64_t>{1, 1}));
}

TEST(VmTest, IfElseChains) {
  auto h = run_ok(R"(
    var x = 2;
    if (x == 1) { out(10); }
    else if (x == 2) { out(20); }
    else { out(30); }
  )");
  EXPECT_EQ(h.outputs, std::vector<std::int64_t>{20});
}

TEST(VmTest, WhileLoopSum) {
  auto h = run_ok(R"(
    var i = 1;
    var sum = 0;
    while (i <= 100) {
      sum = sum + i;
      i = i + 1;
    }
    out(sum);
  )");
  EXPECT_EQ(h.outputs, std::vector<std::int64_t>{5050});
}

TEST(VmTest, ForLoop) {
  auto h = run_ok("var sum = 0; for (var i = 1; i <= 10; i = i + 1) { "
                  "sum = sum + i; } out(sum);");
  EXPECT_EQ(h.outputs, std::vector<std::int64_t>{55});
}

TEST(VmTest, ForLoopEmptyHeaderParts) {
  auto h = run_ok(R"(
    var i = 0;
    for (;;) {
      i = i + 1;
      if (i >= 5) { break; }
    }
    out(i);
    for (; i < 8;) { i = i + 1; }
    out(i);
  )");
  EXPECT_EQ(h.outputs, (std::vector<std::int64_t>{5, 8}));
}

TEST(VmTest, BreakLeavesInnermostLoop) {
  auto h = run_ok(R"(
    var hits = 0;
    for (var i = 0; i < 3; i = i + 1) {
      var j = 0;
      while (1) {
        j = j + 1;
        if (j == 2) { break; }
      }
      hits = hits + j;
    }
    out(hits);
  )");
  EXPECT_EQ(h.outputs, std::vector<std::int64_t>{6});
}

TEST(VmTest, ContinueRunsForStep) {
  // Sum of odd numbers below 10: continue must still execute i = i + 1.
  auto h = run_ok(R"(
    var sum = 0;
    for (var i = 0; i < 10; i = i + 1) {
      if (i % 2 == 0) { continue; }
      sum = sum + i;
    }
    out(sum);
  )");
  EXPECT_EQ(h.outputs, std::vector<std::int64_t>{25});
}

TEST(VmTest, ContinueInWhileReevaluatesCondition) {
  auto h = run_ok(R"(
    var i = 0;
    var sum = 0;
    while (i < 6) {
      i = i + 1;
      if (i == 3) { continue; }
      sum = sum + i;
    }
    out(sum);
  )");
  EXPECT_EQ(h.outputs, std::vector<std::int64_t>{18});  // 1+2+4+5+6
}

TEST(CompilerTest, BreakOutsideLoopRejected) {
  EXPECT_FALSE(compile("break;", "t").is_ok());
  EXPECT_FALSE(compile("continue;", "t").is_ok());
  EXPECT_FALSE(compile("if (1) { break; }", "t").is_ok());
}

TEST(VmTest, NestedLoopsPrimeCount) {
  // Count primes below 100 by trial division — the paper's own workload.
  auto h = run_ok(R"(
    var n = 2;
    var count = 0;
    while (n < 100) {
      var isprime = 1;
      var d = 2;
      while (d * d <= n) {
        if (n % d == 0) { isprime = 0; }
        d = d + 1;
      }
      if (isprime == 1) { count = count + 1; }
      n = n + 1;
    }
    out(count);
  )");
  EXPECT_EQ(h.outputs, std::vector<std::int64_t>{25});
}

TEST(VmTest, ParamsAndSend) {
  auto h = run_ok("send(param(0), 2, param(1) * 2); out(nparams());",
                  {777, 21});
  ASSERT_EQ(h.sends.size(), 1u);
  EXPECT_EQ(h.sends[0], std::make_tuple(std::int64_t{777}, std::int64_t{2},
                                        std::int64_t{42}));
  EXPECT_EQ(h.outputs, std::vector<std::int64_t>{2});
}

TEST(VmTest, SpawnReturnsAddress) {
  auto h = run_ok(R"(
    var f = spawn("worker", 3);
    send(f, 0, 1);
  )");
  ASSERT_EQ(h.spawns.size(), 1u);
  EXPECT_EQ(h.spawns[0].first, "worker");
  EXPECT_EQ(h.spawns[0].second, 3);
  EXPECT_EQ(std::get<0>(h.sends.at(0)), 1001);
}

TEST(VmTest, GlobalMemory) {
  auto h = run_ok(R"(
    var a = alloc(4);
    store(a, 0, 11);
    store(a, 3, 44);
    out(load(a, 0) + load(a, 3));
  )");
  EXPECT_EQ(h.outputs, std::vector<std::int64_t>{55});
}

TEST(VmTest, OutStrAndCharge) {
  auto h = run_ok(R"(outs("phase done"); charge(5000);)");
  EXPECT_EQ(h.text_outputs, std::vector<std::string>{"phase done"});
  EXPECT_EQ(h.charged, 5000);
}

TEST(VmTest, SelfSiteAndArgs) {
  auto h = run_ok("out(selfsite()); out(arg(0) + arg(1)); out(nargs());",
                  {}, {30, 12});
  EXPECT_EQ(h.outputs, (std::vector<std::int64_t>{17, 42, 2}));
}

TEST(VmTest, ExitIntrinsic) {
  auto h = run_ok("exit(7); return;");
  EXPECT_EQ(h.exit_calls, std::vector<std::int64_t>{7});
}

TEST(VmTest, ReturnStopsExecution) {
  auto h = run_ok("out(1); return; out(2);");
  EXPECT_EQ(h.outputs, std::vector<std::int64_t>{1});
}

TEST(VmTest, DivisionByZeroTraps) {
  auto prog = compile("var x = 0; out(1 / x);", "t");
  ASSERT_TRUE(prog.is_ok());
  MockHandler h;
  auto r = Vm::run(prog.value(), h);
  EXPECT_FALSE(r.status.is_ok());
  EXPECT_NE(r.status.message().find("division by zero"), std::string::npos);
}

TEST(VmTest, ModuloByZeroTraps) {
  auto prog = compile("var x = 0; out(1 % x);", "t");
  ASSERT_TRUE(prog.is_ok());
  MockHandler h;
  EXPECT_FALSE(Vm::run(prog.value(), h).status.is_ok());
}

TEST(VmTest, StepLimitTraps) {
  auto prog = compile("var x = 1; while (x) { x = x; }", "t");
  ASSERT_TRUE(prog.is_ok());
  MockHandler h;
  auto r = Vm::run(prog.value(), h, /*step_limit=*/1000);
  EXPECT_EQ(r.status.code(), ErrorCode::kResourceExhausted);
}

TEST(VmTest, CyclesReflectWork) {
  auto prog_small = compile("var i = 0; while (i < 10) { i = i + 1; }", "s");
  auto prog_big = compile("var i = 0; while (i < 1000) { i = i + 1; }", "b");
  ASSERT_TRUE(prog_small.is_ok());
  ASSERT_TRUE(prog_big.is_ok());
  MockHandler h;
  auto rs = Vm::run(prog_small.value(), h);
  auto rb = Vm::run(prog_big.value(), h);
  EXPECT_GT(rb.cycles, rs.cycles * 50);
}

TEST(ProgramTest, SerializeRoundTrip) {
  auto prog = compile(R"(
    var f = spawn("next", 2);
    outs("hi");
    send(f, 0, 1);
  )", "roundtrip");
  ASSERT_TRUE(prog.is_ok());
  auto bytes = prog.value().serialize();
  auto back = Program::deserialize(bytes);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value(), prog.value());
}

TEST(ProgramTest, DeserializeRejectsGarbage) {
  std::vector<std::byte> junk(7, std::byte{0xFF});
  EXPECT_FALSE(Program::deserialize(junk).is_ok());
}

TEST(ProgramTest, DisassembleMentionsOpcodes) {
  auto prog = compile("var x = 1; while (x < 5) { x = x + 1; } out(x);", "d");
  ASSERT_TRUE(prog.is_ok());
  auto listing = disassemble(prog.value());
  EXPECT_NE(listing.find("push"), std::string::npos);
  EXPECT_NE(listing.find("jz"), std::string::npos);
  EXPECT_NE(listing.find("intrinsic out"), std::string::npos);
}

TEST(ProgramTest, DeserializedProgramRuns) {
  auto prog = compile("out(6 * 7);", "reload");
  ASSERT_TRUE(prog.is_ok());
  auto back = Program::deserialize(prog.value().serialize());
  ASSERT_TRUE(back.is_ok());
  MockHandler h;
  ASSERT_TRUE(Vm::run(back.value(), h).status.is_ok());
  EXPECT_EQ(h.outputs, std::vector<std::int64_t>{42});
}

// Property test: random arithmetic expressions evaluate identically in
// MicroC and in direct C++ evaluation.
class ArithmeticEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ArithmeticEquivalenceTest, MatchesReferenceEvaluator) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  // Build a random expression tree over small ints with safe operators.
  struct Node {
    std::string text;
    std::int64_t value;
  };
  std::function<Node(int)> gen = [&](int depth) -> Node {
    if (depth == 0 || rng.below(3) == 0) {
      std::int64_t v = static_cast<std::int64_t>(rng.below(200)) - 100;
      return {"(" + std::to_string(v) + ")", v};
    }
    Node a = gen(depth - 1);
    Node b = gen(depth - 1);
    switch (rng.below(6)) {
      case 0: return {"(" + a.text + "+" + b.text + ")", a.value + b.value};
      case 1: return {"(" + a.text + "-" + b.text + ")", a.value - b.value};
      case 2: return {"(" + a.text + "*" + b.text + ")", a.value * b.value};
      case 3: return {"(" + a.text + "<" + b.text + ")", a.value < b.value};
      case 4: return {"(" + a.text + "==" + b.text + ")", a.value == b.value};
      default: return {"(" + a.text + "&" + b.text + ")", a.value & b.value};
    }
  };
  for (int trial = 0; trial < 20; ++trial) {
    Node n = gen(4);
    auto h = run_ok("out(" + n.text + ");");
    ASSERT_EQ(h.outputs.size(), 1u);
    EXPECT_EQ(h.outputs[0], n.value) << n.text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArithmeticEquivalenceTest,
                         ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Typechecker diagnostics: every rejection carries an exact line:column.

/// Compiles expecting failure; returns the diagnostic message.
std::string diag(const std::string& src) {
  auto r = compile(src, "t");
  EXPECT_FALSE(r.is_ok()) << "source unexpectedly compiled:\n" << src;
  return r.is_ok() ? std::string() : r.status().message();
}

TEST(TypecheckDiagTest, UndeclaredVariablePosition) {
  // 'y' starts at line 2, column 7.
  std::string m = diag("var a = 1;\nvar b = a + y;\n");
  EXPECT_NE(m.find("line 2:13"), std::string::npos) << m;
  EXPECT_NE(m.find("undeclared variable 'y'"), std::string::npos) << m;
}

TEST(TypecheckDiagTest, ArityMismatchExpectedVsGot) {
  std::string m = diag("send(1, 2);");
  EXPECT_NE(m.find("'send' expects 3 argument(s), got 2"), std::string::npos)
      << m;
  EXPECT_NE(m.find("line 1:1"), std::string::npos) << m;
}

TEST(TypecheckDiagTest, StringWhereIntExpected) {
  std::string m = diag("out(\"nope\");");
  EXPECT_NE(m.find("expected int, got str"), std::string::npos) << m;
  EXPECT_NE(m.find("argument 1"), std::string::npos) << m;
}

TEST(TypecheckDiagTest, IntWhereStringExpected) {
  std::string m = diag("var f = spawn(5, 2);");
  EXPECT_NE(m.find("expected string, got int"), std::string::npos) << m;
}

TEST(TypecheckDiagTest, VoidInBinaryOperand) {
  std::string m = diag("var x = 1 + out(2);");
  EXPECT_NE(m.find("expected int, got void"), std::string::npos) << m;
}

TEST(TypecheckDiagTest, VoidCondition) {
  std::string m = diag("while (out(1)) { }");
  EXPECT_NE(m.find("while condition"), std::string::npos) << m;
}

TEST(TypecheckDiagTest, ContinueOutsideLoop) {
  std::string m = diag("continue;");
  EXPECT_NE(m.find("'continue' outside a loop"), std::string::npos) << m;
}

TEST(TypecheckDiagTest, BreakPositionInsideIf) {
  std::string m = diag("var x = 1;\nif (x) {\n  break;\n}\n");
  EXPECT_NE(m.find("line 3:3"), std::string::npos) << m;
}

TEST(TypecheckDiagTest, RedeclarationInSameScope) {
  std::string m = diag("var x = 1;\nvar q = 0;\nif (q) { var y = 1; var y = 2; }");
  EXPECT_NE(m.find("redeclaration of 'y'"), std::string::npos) << m;
}

TEST(TypecheckDiagTest, ShadowingInDisjointScopesAllowed) {
  auto h = run_ok(
      "var x = 1;\n"
      "if (x) { var t = 10; x = x + t; } else { var t = 20; x = t; }\n"
      "while (x > 11) { var t = 1; x = x - t; }\n"
      "out(x);");
  EXPECT_EQ(h.outputs, std::vector<std::int64_t>{11});
}

TEST(TypecheckDiagTest, ForInitScopeEndsWithLoop) {
  std::string m = diag("for (var i = 0; i < 3; i = i + 1) { }\nout(i);");
  EXPECT_NE(m.find("undeclared variable 'i'"), std::string::npos) << m;
  EXPECT_NE(m.find("line 2"), std::string::npos) << m;
}

// ---------------------------------------------------------------------------
// Lexer/parser edge cases that previously slipped through silently.

TEST(LexerRegressionTest, UnterminatedBlockComment) {
  EXPECT_THROW(lex("var x = 1; /* no end"), LexError);
}

TEST(LexerRegressionTest, Int64MaxLiteralAccepted) {
  auto h = run_ok("out(9223372036854775807);");
  EXPECT_EQ(h.outputs, std::vector<std::int64_t>{INT64_MAX});
}

TEST(LexerRegressionTest, JustOverInt64MaxRejected) {
  EXPECT_THROW(lex("out(9223372036854775808);"), LexError);
}

TEST(LexerRegressionTest, ErrorCarriesColumn) {
  try {
    lex("var x = @;");
    FAIL() << "expected LexError";
  } catch (const LexError& e) {
    EXPECT_EQ(e.error.line, 1);
    EXPECT_EQ(e.error.column, 9);
  }
}

TEST(ParserRegressionTest, DeepNestingRejectedNotCrash) {
  std::string src = "out(";
  for (int i = 0; i < 5000; ++i) src += '(';
  src += '1';
  for (int i = 0; i < 5000; ++i) src += ')';
  src += ");";
  EXPECT_THROW((void)parse(src), ParseError);
}

TEST(ParserRegressionTest, ModerateNestingStillWorks) {
  std::string src = "out(";
  for (int i = 0; i < 50; ++i) src += '(';
  src += '7';
  for (int i = 0; i < 50; ++i) src += ')';
  src += ");";
  auto h = run_ok(src);
  EXPECT_EQ(h.outputs, std::vector<std::int64_t>{7});
}

TEST(ParserRegressionTest, UnterminatedBlockReported) {
  std::string m = diag("var x = 1;\nwhile (x) {\n  x = x - 1;");
  EXPECT_NE(m.find("unterminated block"), std::string::npos) << m;
}

// ---------------------------------------------------------------------------
// Runtime traps survive compilation: a reachable division by zero and an
// infinite loop are runtime behaviour, never folded away at compile time.

TEST(OptimizerTest, DoesNotFoldReachableDivisionByZero) {
  // 1/0 must stay a runtime trap, not a compile-time crash or silent 0.
  auto prog = compile("var z = 0; out(1 / z);", "t");
  ASSERT_TRUE(prog.is_ok());
  MockHandler h;
  auto r = Vm::run(prog.value(), h);
  EXPECT_FALSE(r.status.is_ok());
  EXPECT_NE(r.status.message().find("division by zero"), std::string::npos);
}

TEST(OptimizerTest, InfiniteLoopSurvivesOptimization) {
  auto prog = compile("var i = 0; while (1) { i = i + 1; }", "t");
  ASSERT_TRUE(prog.is_ok());
  MockHandler h;
  auto r = Vm::run(prog.value(), h, 1000);
  EXPECT_FALSE(r.status.is_ok());
  EXPECT_NE(r.status.message().find("step limit"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The decoded direct-threaded VM agrees with the legacy VM.

TEST(DispatchTest, AllModesProduceIdenticalResults) {
  auto prog = compile(
      "var n = param(0); var s = 0;"
      "for (var i = 1; i <= n; i = i + 1) { s = s + i * i; }"
      "out(s);", "t");
  ASSERT_TRUE(prog.is_ok());
  MockHandler h;
  h.params = {100};
  ASSERT_TRUE(Vm::run(prog.value(), h).status.is_ok());
  EXPECT_EQ(h.outputs, std::vector<std::int64_t>{338350});
  MockHandler hl;
  hl.params = {100};
  ASSERT_TRUE(Vm::run_legacy(prog.value(), hl).status.is_ok());
  EXPECT_EQ(hl.outputs, std::vector<std::int64_t>{338350});
}

TEST(DispatchTest, FusionKeepsCycleCountsExact) {
  // Superinstructions must account for every wire instruction they absorb.
  auto prog = compile(
      "var s = 0;"
      "for (var i = 0; i < 37; i = i + 1) { s = s + i; }"
      "out(s);", "t");
  ASSERT_TRUE(prog.is_ok());
  MockHandler h1;
  auto legacy = Vm::run_legacy(prog.value(), h1);
  auto fused = decode(prog.value(), /*fuse=*/true);
  auto plain = decode(prog.value(), /*fuse=*/false);
  ASSERT_TRUE(fused.is_ok() && plain.is_ok());
  // Fusion must actually have shortened the decoded stream.
  EXPECT_LT(fused.value().insts.size(), plain.value().insts.size());
  MockHandler h2, h3;
  auto rf = Vm::run(fused.value(), prog.value(), h2);
  auto rp = Vm::run(plain.value(), prog.value(), h3);
  ASSERT_TRUE(legacy.status.is_ok());
  ASSERT_TRUE(rf.status.is_ok() && rp.status.is_ok());
  EXPECT_EQ(rf.cycles, legacy.cycles);
  EXPECT_EQ(rp.cycles, legacy.cycles);
}

TEST(DecodeTest, RejectsTruncatedOperand) {
  Program p;
  p.name = "bad";
  p.code = {static_cast<std::byte>(Op::kPushInt), std::byte{1}};
  EXPECT_FALSE(decode(p).is_ok());
}

TEST(DecodeTest, RejectsJumpIntoOperand) {
  // push 0 (9 bytes); jmp targeting byte 1 (middle of the push operand).
  Program p;
  p.name = "bad";
  p.code.assign(9, std::byte{0});
  p.code[0] = static_cast<std::byte>(Op::kPushInt);
  p.code.push_back(static_cast<std::byte>(Op::kJmp));
  std::int32_t rel = -13;  // operand end is 14; 14 + (-13) = 1.
  for (int i = 0; i < 4; ++i) {
    p.code.push_back(static_cast<std::byte>(
        (static_cast<std::uint32_t>(rel) >> (8 * i)) & 0xFF));
  }
  EXPECT_FALSE(decode(p).is_ok());
}

TEST(DecodeTest, RejectsStackUnderflow) {
  Program p;
  p.name = "bad";
  p.code = {static_cast<std::byte>(Op::kAdd)};
  auto r = decode(p);
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("underflow"), std::string::npos);
}

TEST(DecodeTest, RejectsBadLocalSlot) {
  Program p;
  p.name = "bad";
  p.local_count = 1;
  p.code = {static_cast<std::byte>(Op::kLoadLocal), std::byte{5},
            std::byte{0}};
  EXPECT_FALSE(decode(p).is_ok());
}

TEST(DecodeTest, RejectsBadStringIndex) {
  Program p;
  p.name = "bad";
  p.code = {static_cast<std::byte>(Op::kPushStr), std::byte{9}, std::byte{0},
            std::byte{0}, std::byte{0}};
  EXPECT_FALSE(decode(p).is_ok());
}

}  // namespace
}  // namespace sdvm::microc
