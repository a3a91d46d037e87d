#include "microc/vm.hpp"

#include <algorithm>

namespace sdvm::microc {

namespace {

class TrapError : public std::exception {
 public:
  explicit TrapError(std::string msg) : msg_(std::move(msg)) {}
  const char* what() const noexcept override { return msg_.c_str(); }

 private:
  std::string msg_;
};

// Explicitly wrapping arithmetic: defined behavior on overflow.
inline std::int64_t vm_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t vm_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t vm_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t vm_neg(std::int64_t a) {
  return static_cast<std::int64_t>(-static_cast<std::uint64_t>(a));
}

}  // namespace

// Direct-threaded interpreter over the verified pre-decoded form. Each
// handler ends by jumping straight to the next instruction's handler
// (computed goto), so the branch predictor sees one indirect-branch site
// per opcode instead of a single shared dispatch branch. The decoder
// verified slots, string indices, jump targets and stack depths, so the
// loop performs no per-step validation — only the value-dependent traps
// (div/mod/shift) and the step limit remain.
#define VM_NEXT                                \
  do {                                         \
    steps += ip->cost;                         \
    if (steps > stop) goto vm_limit;           \
    goto* kTargets[static_cast<int>(ip->op)];  \
  } while (0)

VmResult Vm::run(const DecodedProgram& d, const Program& p,
                 IntrinsicHandler& handler, std::uint64_t step_limit) {
  const DInst* const base = d.insts.data();
  const DInst* ip = base;
  std::vector<std::int64_t> stack_store(d.max_stack + 1);
  std::int64_t* sp = stack_store.data();
  std::vector<std::int64_t> locals(p.local_count, 0);
  std::uint64_t steps = 0;
  // Where the loop next leaves the fast path: the step limit, or the end
  // of the current slice.
  std::uint64_t stop = std::min(step_limit, kSliceSteps);
  const char* trap_msg = "trap";

  auto pool_str = [&](std::int64_t idx) -> const std::string& {
    if (idx < 0 || static_cast<std::size_t>(idx) >= p.string_pool.size()) {
      throw TrapError("bad string pool index");
    }
    return p.string_pool[static_cast<std::size_t>(idx)];
  };

  try {
    static const void* const kTargets[kNumDOps] = {
        &&t_kConst, &&t_kConstStr, &&t_kLoad, &&t_kStore,
        &&t_kAdd, &&t_kSub, &&t_kMul, &&t_kDiv, &&t_kMod, &&t_kNeg,
        &&t_kEq, &&t_kNe, &&t_kLt, &&t_kLe, &&t_kGt, &&t_kGe,
        &&t_kBitAnd, &&t_kBitOr, &&t_kBitXor, &&t_kShl, &&t_kShr,
        &&t_kBitNot, &&t_kLogicalNot,
        &&t_kJmp, &&t_kJz, &&t_kJnz, &&t_kDup, &&t_kPop, &&t_kRet,
        &&t_kParam, &&t_kNumParams, &&t_kSpawn, &&t_kSend, &&t_kAlloc,
        &&t_kGlobalLoad, &&t_kGlobalStore, &&t_kOut, &&t_kOutStr,
        &&t_kCharge, &&t_kSelfSite, &&t_kArg, &&t_kNumArgs, &&t_kExit,
        &&t_kSpawnP,
        &&t_kEqJz, &&t_kNeJz, &&t_kLtJz, &&t_kLeJz, &&t_kGtJz, &&t_kGeJz,
        &&t_kIncLocal, &&t_kAddLocals, &&t_kLoadLoad, &&t_kSpawnConst,
    };
    VM_NEXT;

    t_kConst: { *sp++ = ip->imm; ++ip; } VM_NEXT;
    t_kConstStr: { *sp++ = ip->b; ++ip; } VM_NEXT;
    t_kLoad: { *sp++ = locals[ip->a]; ++ip; } VM_NEXT;
    t_kStore: { locals[ip->a] = *--sp; ++ip; } VM_NEXT;
    t_kAdd: { sp[-2] = vm_add(sp[-2], sp[-1]); --sp; ++ip; } VM_NEXT;
    t_kSub: { sp[-2] = vm_sub(sp[-2], sp[-1]); --sp; ++ip; } VM_NEXT;
    t_kMul: { sp[-2] = vm_mul(sp[-2], sp[-1]); --sp; ++ip; } VM_NEXT;
    t_kDiv: {
      std::int64_t b = sp[-1], a = sp[-2];
      if (b == 0) { trap_msg = "division by zero"; goto vm_trap; }
      if (a == INT64_MIN && b == -1) {
        trap_msg = "division overflow";
        goto vm_trap;
      }
      sp[-2] = a / b;
      --sp;
      ++ip;
    } VM_NEXT;
    t_kMod: {
      std::int64_t b = sp[-1], a = sp[-2];
      if (b == 0) { trap_msg = "modulo by zero"; goto vm_trap; }
      if (a == INT64_MIN && b == -1) {
        trap_msg = "modulo overflow";
        goto vm_trap;
      }
      sp[-2] = a % b;
      --sp;
      ++ip;
    } VM_NEXT;
    t_kNeg: { sp[-1] = vm_neg(sp[-1]); ++ip; } VM_NEXT;
    t_kEq: { sp[-2] = sp[-2] == sp[-1]; --sp; ++ip; } VM_NEXT;
    t_kNe: { sp[-2] = sp[-2] != sp[-1]; --sp; ++ip; } VM_NEXT;
    t_kLt: { sp[-2] = sp[-2] < sp[-1]; --sp; ++ip; } VM_NEXT;
    t_kLe: { sp[-2] = sp[-2] <= sp[-1]; --sp; ++ip; } VM_NEXT;
    t_kGt: { sp[-2] = sp[-2] > sp[-1]; --sp; ++ip; } VM_NEXT;
    t_kGe: { sp[-2] = sp[-2] >= sp[-1]; --sp; ++ip; } VM_NEXT;
    t_kBitAnd: { sp[-2] &= sp[-1]; --sp; ++ip; } VM_NEXT;
    t_kBitOr: { sp[-2] |= sp[-1]; --sp; ++ip; } VM_NEXT;
    t_kBitXor: { sp[-2] ^= sp[-1]; --sp; ++ip; } VM_NEXT;
    t_kShl: {
      std::int64_t b = sp[-1];
      if (b < 0 || b > 63) { trap_msg = "shift out of range"; goto vm_trap; }
      sp[-2] = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(sp[-2]) << b);
      --sp;
      ++ip;
    } VM_NEXT;
    t_kShr: {
      std::int64_t b = sp[-1];
      if (b < 0 || b > 63) { trap_msg = "shift out of range"; goto vm_trap; }
      sp[-2] = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(sp[-2]) >> b);
      --sp;
      ++ip;
    } VM_NEXT;
    t_kBitNot: { sp[-1] = ~sp[-1]; ++ip; } VM_NEXT;
    t_kLogicalNot: { sp[-1] = sp[-1] == 0; ++ip; } VM_NEXT;
    t_kJmp: { ip = base + ip->b; } VM_NEXT;
    t_kJz: { ip = *--sp == 0 ? base + ip->b : ip + 1; } VM_NEXT;
    t_kJnz: { ip = *--sp != 0 ? base + ip->b : ip + 1; } VM_NEXT;
    t_kDup: { sp[0] = sp[-1]; ++sp; ++ip; } VM_NEXT;
    t_kPop: { --sp; ++ip; } VM_NEXT;
    t_kRet:
      return {Status::ok(), steps};

    // --- intrinsics (one dispatch target each) -----------------------------
    t_kParam: { sp[-1] = handler.param(sp[-1]); ++ip; } VM_NEXT;
    t_kNumParams: { *sp++ = handler.num_params(); ++ip; } VM_NEXT;
    t_kSpawn: {
      std::int64_t n = *--sp;
      sp[-1] = handler.spawn(pool_str(sp[-1]), n);
      ++ip;
    } VM_NEXT;
    t_kSend: {
      std::int64_t v = *--sp, slot = *--sp, addr = *--sp;
      handler.send(addr, slot, v);
      ++ip;
    } VM_NEXT;
    t_kAlloc: { sp[-1] = handler.alloc(sp[-1]); ++ip; } VM_NEXT;
    t_kGlobalLoad: {
      std::int64_t idx = *--sp;
      handler.steps_at_call = steps;
      sp[-1] = handler.load(sp[-1], idx);
      ++ip;
    } VM_NEXT;
    t_kGlobalStore: {
      std::int64_t v = *--sp, idx = *--sp, addr = *--sp;
      handler.steps_at_call = steps;
      handler.store(addr, idx, v);
      ++ip;
    } VM_NEXT;
    t_kOut: { handler.out(*--sp); ++ip; } VM_NEXT;
    t_kOutStr: { handler.out_str(pool_str(*--sp)); ++ip; } VM_NEXT;
    t_kCharge: { handler.charge(*--sp); ++ip; } VM_NEXT;
    t_kSelfSite: { *sp++ = handler.self_site(); ++ip; } VM_NEXT;
    t_kArg: { sp[-1] = handler.arg(sp[-1]); ++ip; } VM_NEXT;
    t_kNumArgs: { *sp++ = handler.num_args(); ++ip; } VM_NEXT;
    t_kExit: { handler.exit_program(*--sp); ++ip; } VM_NEXT;
    t_kSpawnP: {
      std::int64_t prio = *--sp, n = *--sp;
      sp[-1] = handler.spawn_prio(pool_str(sp[-1]), n, prio);
      ++ip;
    } VM_NEXT;

    // --- superinstructions -------------------------------------------------
    // cmp;Jz jumps when the comparison is FALSE (Jz pops the 0).
    t_kEqJz: {
      std::int64_t b = *--sp, a = *--sp;
      ip = a == b ? ip + 1 : base + ip->b;
    } VM_NEXT;
    t_kNeJz: {
      std::int64_t b = *--sp, a = *--sp;
      ip = a != b ? ip + 1 : base + ip->b;
    } VM_NEXT;
    t_kLtJz: {
      std::int64_t b = *--sp, a = *--sp;
      ip = a < b ? ip + 1 : base + ip->b;
    } VM_NEXT;
    t_kLeJz: {
      std::int64_t b = *--sp, a = *--sp;
      ip = a <= b ? ip + 1 : base + ip->b;
    } VM_NEXT;
    t_kGtJz: {
      std::int64_t b = *--sp, a = *--sp;
      ip = a > b ? ip + 1 : base + ip->b;
    } VM_NEXT;
    t_kGeJz: {
      std::int64_t b = *--sp, a = *--sp;
      ip = a >= b ? ip + 1 : base + ip->b;
    } VM_NEXT;
    t_kIncLocal: {
      locals[ip->a] = vm_add(locals[ip->a], ip->imm);
      ++ip;
    } VM_NEXT;
    t_kAddLocals: {
      locals[ip->a] = vm_add(locals[ip->a], locals[ip->b]);
      ++ip;
    } VM_NEXT;
    t_kLoadLoad: {
      sp[0] = locals[ip->a];
      sp[1] = locals[ip->b];
      sp += 2;
      ++ip;
    } VM_NEXT;
    t_kSpawnConst: {
      *sp++ = handler.spawn(p.string_pool[ip->b], ip->imm);
      ++ip;
    } VM_NEXT;

  vm_limit:
    if (steps <= step_limit) {
      // A slice is used up: let the handler run other work, then execute
      // the instruction at ip.
      handler.slice_done();
      stop = std::min(step_limit, steps + kSliceSteps);
      goto* kTargets[static_cast<int>(ip->op)];
    }
    return {Status::error(ErrorCode::kResourceExhausted,
                          "microthread '" + p.name + "' exceeded step limit"),
            steps};
  vm_trap:
    return {Status::error(ErrorCode::kInternal,
                          "microthread '" + p.name + "' trapped: " + trap_msg +
                              " (pc=" + std::to_string(ip - base) + ")"),
            steps};
  } catch (const TrapError& e) {
    return {Status::error(ErrorCode::kInternal,
                          "microthread '" + p.name + "' trapped: " + e.what()),
            steps};
  } catch (const IntrinsicError& e) {
    return {Status::error(ErrorCode::kUnavailable,
                          "microthread '" + p.name +
                              "' aborted in intrinsic: " + e.what()),
            steps};
  }
}

#undef VM_NEXT

VmResult Vm::run(const Program& program, IntrinsicHandler& handler,
                 std::uint64_t step_limit) {
  auto decoded = decode(program);
  if (!decoded.is_ok()) {
    return {Status::error(ErrorCode::kInternal,
                          "microthread '" + program.name +
                              "' trapped: " + decoded.status().message()),
            0};
  }
  return run(decoded.value(), program, handler, step_limit);
}

// ---------------------------------------------------------------------------
// Legacy interpreter: the original byte-walking checked loop, unchanged.
// Kept as the checked reference: the golden corpus and DispatchTest hold
// the decoded VM to its traces and cycle counts, and
// bench/overhead_sequential measures the decode+threading win against it.
// ---------------------------------------------------------------------------

VmResult Vm::run_legacy(const Program& program, IntrinsicHandler& handler,
                        std::uint64_t step_limit) {
  const std::byte* code = program.code.data();
  const std::size_t code_size = program.code.size();
  std::size_t pc = 0;
  std::vector<std::int64_t> stack;
  stack.reserve(32);
  std::vector<std::int64_t> locals(program.local_count, 0);
  std::uint64_t steps = 0;

  auto read_u8 = [&]() -> std::uint8_t {
    if (pc >= code_size) throw TrapError("pc past end of code");
    return static_cast<std::uint8_t>(code[pc++]);
  };
  auto read_u16 = [&]() -> std::uint16_t {
    std::uint16_t lo = read_u8();
    std::uint16_t hi = read_u8();
    return static_cast<std::uint16_t>(lo | (hi << 8));
  };
  auto read_u32 = [&]() -> std::uint32_t {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{read_u8()} << (8 * i);
    return v;
  };
  auto read_i64 = [&]() -> std::int64_t {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{read_u8()} << (8 * i);
    return static_cast<std::int64_t>(v);
  };
  auto pop = [&]() -> std::int64_t {
    if (stack.empty()) throw TrapError("stack underflow");
    std::int64_t v = stack.back();
    stack.pop_back();
    return v;
  };

  try {
    while (pc < code_size) {
      if (++steps > step_limit) {
        return {Status::error(ErrorCode::kResourceExhausted,
                              "microthread '" + program.name +
                                  "' exceeded step limit"),
                steps};
      }
      Op op = static_cast<Op>(read_u8());
      switch (op) {
        case Op::kPushInt: stack.push_back(read_i64()); break;
        case Op::kPushStr: stack.push_back(read_u32()); break;
        case Op::kLoadLocal: {
          std::uint16_t slot = read_u16();
          if (slot >= locals.size()) throw TrapError("bad local slot");
          stack.push_back(locals[slot]);
          break;
        }
        case Op::kStoreLocal: {
          std::uint16_t slot = read_u16();
          if (slot >= locals.size()) throw TrapError("bad local slot");
          locals[slot] = pop();
          break;
        }
        case Op::kAdd: { auto b = pop(), a = pop(); stack.push_back(vm_add(a, b)); break; }
        case Op::kSub: { auto b = pop(), a = pop(); stack.push_back(vm_sub(a, b)); break; }
        case Op::kMul: { auto b = pop(), a = pop(); stack.push_back(vm_mul(a, b)); break; }
        case Op::kDiv: {
          auto b = pop(), a = pop();
          if (b == 0) throw TrapError("division by zero");
          if (a == INT64_MIN && b == -1) throw TrapError("division overflow");
          stack.push_back(a / b);
          break;
        }
        case Op::kMod: {
          auto b = pop(), a = pop();
          if (b == 0) throw TrapError("modulo by zero");
          if (a == INT64_MIN && b == -1) throw TrapError("modulo overflow");
          stack.push_back(a % b);
          break;
        }
        case Op::kNeg: stack.push_back(vm_neg(pop())); break;
        case Op::kEq: { auto b = pop(), a = pop(); stack.push_back(a == b); break; }
        case Op::kNe: { auto b = pop(), a = pop(); stack.push_back(a != b); break; }
        case Op::kLt: { auto b = pop(), a = pop(); stack.push_back(a < b); break; }
        case Op::kLe: { auto b = pop(), a = pop(); stack.push_back(a <= b); break; }
        case Op::kGt: { auto b = pop(), a = pop(); stack.push_back(a > b); break; }
        case Op::kGe: { auto b = pop(), a = pop(); stack.push_back(a >= b); break; }
        case Op::kBitAnd: { auto b = pop(), a = pop(); stack.push_back(a & b); break; }
        case Op::kBitOr: { auto b = pop(), a = pop(); stack.push_back(a | b); break; }
        case Op::kBitXor: { auto b = pop(), a = pop(); stack.push_back(a ^ b); break; }
        case Op::kShl: {
          auto b = pop(), a = pop();
          if (b < 0 || b > 63) throw TrapError("shift out of range");
          stack.push_back(static_cast<std::int64_t>(
              static_cast<std::uint64_t>(a) << b));
          break;
        }
        case Op::kShr: {
          auto b = pop(), a = pop();
          if (b < 0 || b > 63) throw TrapError("shift out of range");
          stack.push_back(static_cast<std::int64_t>(
              static_cast<std::uint64_t>(a) >> b));
          break;
        }
        case Op::kBitNot: stack.push_back(~pop()); break;
        case Op::kLogicalNot: stack.push_back(pop() == 0 ? 1 : 0); break;
        case Op::kJmp: {
          auto rel = static_cast<std::int32_t>(read_u32());
          pc = static_cast<std::size_t>(static_cast<std::int64_t>(pc) + rel);
          if (pc > code_size) throw TrapError("jump out of range");
          break;
        }
        case Op::kJz: {
          auto rel = static_cast<std::int32_t>(read_u32());
          if (pop() == 0) {
            pc = static_cast<std::size_t>(static_cast<std::int64_t>(pc) + rel);
            if (pc > code_size) throw TrapError("jump out of range");
          }
          break;
        }
        case Op::kJnz: {
          auto rel = static_cast<std::int32_t>(read_u32());
          if (pop() != 0) {
            pc = static_cast<std::size_t>(static_cast<std::int64_t>(pc) + rel);
            if (pc > code_size) throw TrapError("jump out of range");
          }
          break;
        }
        case Op::kDup: {
          if (stack.empty()) throw TrapError("stack underflow");
          stack.push_back(stack.back());
          break;
        }
        case Op::kPop: (void)pop(); break;
        case Op::kIntrinsic: {
          auto id = static_cast<Intrinsic>(read_u8());
          std::uint8_t argc = read_u8();
          if (stack.size() < argc) throw TrapError("stack underflow in call");
          std::int64_t a[3] = {0, 0, 0};
          for (int i = argc - 1; i >= 0; --i) a[i] = pop();
          auto pool_str = [&](std::int64_t idx) -> const std::string& {
            if (idx < 0 ||
                static_cast<std::size_t>(idx) >= program.string_pool.size()) {
              throw TrapError("bad string pool index");
            }
            return program.string_pool[static_cast<std::size_t>(idx)];
          };
          switch (id) {
            case Intrinsic::kParam: stack.push_back(handler.param(a[0])); break;
            case Intrinsic::kNumParams: stack.push_back(handler.num_params()); break;
            case Intrinsic::kSpawn:
              stack.push_back(handler.spawn(pool_str(a[0]), a[1]));
              break;
            case Intrinsic::kSend: handler.send(a[0], a[1], a[2]); break;
            case Intrinsic::kAlloc: stack.push_back(handler.alloc(a[0])); break;
            case Intrinsic::kLoad: stack.push_back(handler.load(a[0], a[1])); break;
            case Intrinsic::kStore: handler.store(a[0], a[1], a[2]); break;
            case Intrinsic::kOut: handler.out(a[0]); break;
            case Intrinsic::kOutStr: handler.out_str(pool_str(a[0])); break;
            case Intrinsic::kCharge: handler.charge(a[0]); break;
            case Intrinsic::kSelfSite: stack.push_back(handler.self_site()); break;
            case Intrinsic::kArg: stack.push_back(handler.arg(a[0])); break;
            case Intrinsic::kNumArgs: stack.push_back(handler.num_args()); break;
            case Intrinsic::kExit: handler.exit_program(a[0]); break;
            case Intrinsic::kSpawnP:
              stack.push_back(handler.spawn_prio(pool_str(a[0]), a[1], a[2]));
              break;
            default:
              throw TrapError("unknown intrinsic");
          }
          break;
        }
        case Op::kReturn:
          return {Status::ok(), steps};
        default:
          throw TrapError("illegal opcode");
      }
    }
    return {Status::ok(), steps};
  } catch (const TrapError& e) {
    return {Status::error(ErrorCode::kInternal,
                          "microthread '" + program.name + "' trapped: " +
                              e.what() + " (pc=" + std::to_string(pc) + ")"),
            steps};
  } catch (const IntrinsicError& e) {
    return {Status::error(ErrorCode::kUnavailable,
                          "microthread '" + program.name +
                              "' aborted in intrinsic: " + e.what()),
            steps};
  }
}

}  // namespace sdvm::microc
