#include "microc/compiler.hpp"

#include "microc/parser.hpp"
#include "microc/typecheck.hpp"

namespace sdvm::microc {

namespace {

/// Walks a typechecked unit and writes wire bytecode directly. Forward
/// jumps (if/else exits, loop exits, `break`, `continue` in a for loop)
/// are emitted with a zero operand and backpatched once their target
/// offset is known. The unit MUST have been annotated by typecheck()
/// (resolved slots and intrinsics); emission does no name lookups.
class Emitter {
 public:
  Program emit(const Unit& unit, const TypeckResult& types,
               std::string name) {
    prog_.name = std::move(name);
    prog_.local_count = types.local_count;
    for (const auto& s : unit.statements) gen_stmt(*s);
    op(Op::kReturn);
    return std::move(prog_);
  }

 private:
  /// Jump operands waiting for one target offset.
  using Patches = std::vector<std::size_t>;

  struct Loop {
    Patches breaks;
    Patches continues;
  };

  void u8(std::uint8_t v) { prog_.code.push_back(std::byte{v}); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void op(Op o) { u8(static_cast<std::uint8_t>(o)); }
  void op_slot(Op o, std::int32_t slot) {
    op(o);
    u16(static_cast<std::uint16_t>(slot));
  }

  [[nodiscard]] std::size_t here() const { return prog_.code.size(); }

  /// Emits a jump with a placeholder operand; returns the operand offset.
  std::size_t jump(Op o) {
    op(o);
    std::size_t at = here();
    u32(0);
    return at;
  }

  /// Points the jump operand at `at` to `target`. The operand is an i32
  /// relative to the next instruction; unsigned wraparound yields its
  /// two's-complement bytes for backward jumps.
  void patch(std::size_t at, std::size_t target) {
    auto rel = static_cast<std::uint32_t>(target - (at + 4));
    for (int i = 0; i < 4; ++i) {
      prog_.code[at + static_cast<std::size_t>(i)] =
          std::byte{static_cast<std::uint8_t>(rel >> (8 * i))};
    }
  }
  void patch_all(const Patches& ats, std::size_t target) {
    for (std::size_t at : ats) patch(at, target);
  }

  std::uint32_t intern_string(const std::string& s) {
    auto& pool = prog_.string_pool;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (pool[i] == s) return static_cast<std::uint32_t>(i);
    }
    pool.push_back(s);
    return static_cast<std::uint32_t>(pool.size() - 1);
  }

  Loop pop_loop() {
    Loop loop = std::move(loops_.back());
    loops_.pop_back();
    return loop;
  }

  void gen_body(const std::vector<StmtPtr>& body) {
    for (const auto& b : body) gen_stmt(*b);
  }

  void gen_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kVarDecl:
      case StmtKind::kAssign:
        gen_expr(*s.expr);
        op_slot(Op::kStoreLocal, s.slot);
        break;
      case StmtKind::kIf: {
        gen_expr(*s.expr);
        std::size_t to_else = jump(Op::kJz);
        gen_body(s.body);
        if (s.else_body.empty()) {
          patch(to_else, here());
        } else {
          std::size_t to_end = jump(Op::kJmp);
          patch(to_else, here());
          gen_body(s.else_body);
          patch(to_end, here());
        }
        break;
      }
      case StmtKind::kWhile: {
        std::size_t top = here();
        loops_.emplace_back();
        gen_expr(*s.expr);
        loops_.back().breaks.push_back(jump(Op::kJz));
        gen_body(s.body);
        Loop loop = pop_loop();
        patch(jump(Op::kJmp), top);
        patch_all(loop.continues, top);
        patch_all(loop.breaks, here());
        break;
      }
      case StmtKind::kFor: {
        if (s.init) gen_stmt(*s.init);
        std::size_t top = here();
        loops_.emplace_back();
        if (s.expr) {
          gen_expr(*s.expr);
          loops_.back().breaks.push_back(jump(Op::kJz));
        }
        gen_body(s.body);
        Loop loop = pop_loop();
        patch_all(loop.continues, here());  // `continue` runs the step
        if (s.step) gen_stmt(*s.step);
        patch(jump(Op::kJmp), top);
        patch_all(loop.breaks, here());
        break;
      }
      case StmtKind::kBreak:
        loops_.back().breaks.push_back(jump(Op::kJmp));
        break;
      case StmtKind::kContinue:
        loops_.back().continues.push_back(jump(Op::kJmp));
        break;
      case StmtKind::kReturn:
        op(Op::kReturn);
        break;
      case StmtKind::kExpr:
        if (gen_expr(*s.expr)) op(Op::kPop);
        break;
    }
  }

  /// Generates code for an expression; returns whether a value was pushed
  /// (void intrinsics push nothing).
  bool gen_expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLiteral:
        op(Op::kPushInt);
        u64(static_cast<std::uint64_t>(e.int_value));
        return true;
      case ExprKind::kStringLiteral:
        op(Op::kPushStr);
        u32(intern_string(e.name));
        return true;
      case ExprKind::kVariable:
        op_slot(Op::kLoadLocal, e.slot);
        return true;
      case ExprKind::kUnary:
        gen_expr(*e.children[0]);
        switch (e.op) {
          case Tok::kMinus: op(Op::kNeg); break;
          case Tok::kBang: op(Op::kLogicalNot); break;
          default: op(Op::kBitNot); break;
        }
        return true;
      case ExprKind::kBinary:
        gen_binary(e);
        return true;
      case ExprKind::kCall:
        for (const auto& arg : e.children) gen_expr(*arg);
        op(Op::kIntrinsic);
        u8(static_cast<std::uint8_t>(e.intrinsic->id));
        u8(static_cast<std::uint8_t>(e.intrinsic->arity));
        return e.intrinsic->returns_value;
    }
    return false;
  }

  void gen_binary(const Expr& e) {
    // Short-circuit logical operators: normalize each side to 0/1 so the
    // result is boolean regardless of which branch produced it.
    if (e.op == Tok::kAmpAmp || e.op == Tok::kPipePipe) {
      gen_expr(*e.children[0]);
      op(Op::kLogicalNot);
      op(Op::kLogicalNot);
      op(Op::kDup);
      std::size_t skip = jump(e.op == Tok::kAmpAmp ? Op::kJz : Op::kJnz);
      op(Op::kPop);
      gen_expr(*e.children[1]);
      op(Op::kLogicalNot);
      op(Op::kLogicalNot);
      patch(skip, here());
      return;
    }

    gen_expr(*e.children[0]);
    gen_expr(*e.children[1]);
    switch (e.op) {
      case Tok::kPlus: op(Op::kAdd); break;
      case Tok::kMinus: op(Op::kSub); break;
      case Tok::kStar: op(Op::kMul); break;
      case Tok::kSlash: op(Op::kDiv); break;
      case Tok::kPercent: op(Op::kMod); break;
      case Tok::kEq: op(Op::kEq); break;
      case Tok::kNe: op(Op::kNe); break;
      case Tok::kLt: op(Op::kLt); break;
      case Tok::kLe: op(Op::kLe); break;
      case Tok::kGt: op(Op::kGt); break;
      case Tok::kGe: op(Op::kGe); break;
      case Tok::kAmp: op(Op::kBitAnd); break;
      case Tok::kPipe: op(Op::kBitOr); break;
      case Tok::kCaret: op(Op::kBitXor); break;
      case Tok::kShl: op(Op::kShl); break;
      default: op(Op::kShr); break;
    }
  }

  Program prog_;
  std::vector<Loop> loops_;
};

}  // namespace

Result<Program> compile(std::string_view source, std::string name,
                        CompileError* error_out) {
  try {
    Unit unit = parse(source);
    TypeckResult types = typecheck(unit);
    return Emitter{}.emit(unit, types, std::move(name));
  } catch (const LexError& e) {
    if (error_out != nullptr) *error_out = e.error;
    return Status::error(ErrorCode::kInvalidArgument, e.error.to_string());
  } catch (const ParseError& e) {
    if (error_out != nullptr) *error_out = e.error;
    return Status::error(ErrorCode::kInvalidArgument, e.error.to_string());
  } catch (const TypeError& e) {
    if (error_out != nullptr) *error_out = e.error;
    return Status::error(ErrorCode::kInvalidArgument, e.error.to_string());
  }
}

}  // namespace sdvm::microc
