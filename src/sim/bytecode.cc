#include "sim/bytecode.hh"

#include <algorithm>
#include <type_traits>
#include <unordered_map>

#include "sim/semantics.hh"
#include "support/inline.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/trace.hh"

// Threaded dispatch wants GNU computed goto; everything else gets a
// dense switch the optimizer turns into one jump table.
#if defined(__GNUC__) || defined(__clang__)
#define SS_BC_THREADED 1
#else
#define SS_BC_THREADED 0
#endif

namespace ilp {

namespace {

std::uint16_t
reg16(Reg r)
{
    return r == kNoReg ? BcInstr::kNone16
                       : static_cast<std::uint16_t>(r);
}

Reg
reg32(std::uint16_t r)
{
    return r == BcInstr::kNone16 ? kNoReg : static_cast<Reg>(r);
}

/** Does every register operand of `in` fit the 16-bit encoding and
 *  the function's register file?  (The VM indexes the frame arena
 *  without per-access checks, so lowering is the bounds gate.) */
bool
regsFit(const Instr &in, std::size_t nregs)
{
    auto fits = [nregs](Reg r) { return r == kNoReg || r < nregs; };
    if (!fits(in.dst) || !fits(in.src1) || !fits(in.src2))
        return false;
    for (Reg a : in.args)
        if (!fits(a))
            return false;
    return true;
}

BcOp
binaryBcOp(Opcode op, bool imm)
{
    switch (op) {
#define X(n)                                                          \
      case Opcode::n:                                                 \
        return imm ? BcOp::n##_RI : BcOp::n##_RR;
        SS_BC_BINARY_OPS(X)
#undef X
      default:
        break;
    }
    SS_PANIC("binaryBcOp: not a binary opcode: ", opcodeName(op));
}

BcOp
unaryBcOp(Opcode op)
{
    switch (op) {
#define X(n)                                                          \
      case Opcode::n:                                                 \
        return BcOp::n##_U;
        SS_BC_UNARY_OPS(X)
#undef X
      default:
        break;
    }
    SS_PANIC("unaryBcOp: not a unary opcode: ", opcodeName(op));
}

/** Does `bb` end in a terminator?  (Empty or unterminated blocks get
 *  a FellOff trailer so falling off traps like the interpreter.) */
bool
terminated(const BasicBlock &bb)
{
    if (bb.instrs.empty())
        return false;
    const Opcode op = bb.instrs.back().op;
    return op == Opcode::Br || op == Opcode::Jmp || op == Opcode::Ret;
}

metrics::Counter &
fallbackCounter()
{
    static metrics::Counter &c = metrics::Registry::global().counter(
        "ssim_bytecode_fallbacks_total",
        "modules the bytecode compiler could not represent "
        "(interpreter fallback)");
    return c;
}

/**
 * Lower one function.  Returns false when the register file does not
 * fit the 16-bit encoding (the only unrepresentable shape).
 */
bool
lowerFunction(const Module &module, const Function &func,
              BcFunction &out, std::vector<BcArgMove> &pool)
{
    const std::size_t nregs = std::max<std::size_t>(
        func.numVirtRegs, func.layout.total());
    if (nregs > BcInstr::kNone16)
        return false;

    out.name = func.name;
    out.nregs = static_cast<std::uint32_t>(nregs);
    out.frameBytes = func.frameBytes;
    out.paramCount = static_cast<std::uint32_t>(func.paramRegs.size());
    out.retMoveOp = static_cast<std::uint8_t>(
        func.returnsFloat ? Opcode::MovF : Opcode::MovI);
    const Reg fp = func.framePointer();
    out.fpReg = (fp != kNoReg && fp < nregs)
                    ? static_cast<std::uint16_t>(fp)
                    : BcInstr::kNone16;

    // Pass 1: block start offsets (unterminated blocks grow a
    // FellOff trailer instruction).
    std::vector<std::uint32_t> block_start(func.blocks.size(), 0);
    std::uint32_t offset = 0;
    for (std::size_t b = 0; b < func.blocks.size(); ++b) {
        block_start[b] = offset;
        offset += static_cast<std::uint32_t>(
            func.blocks[b].instrs.size());
        if (!terminated(func.blocks[b]))
            ++offset;
    }

    // Invalid branch targets resolve to per-block-id BadJump
    // trailers appended after the last block.
    std::unordered_map<BlockId, std::uint32_t> bad_jump;
    std::uint32_t trailer = offset;
    auto resolve = [&](BlockId target) -> std::uint32_t {
        if (target >= 0 &&
            static_cast<std::size_t>(target) < func.blocks.size())
            return block_start[static_cast<std::size_t>(target)];
        auto [it, fresh] = bad_jump.try_emplace(target, trailer);
        if (fresh)
            ++trailer;
        return it->second;
    };

    out.code.clear();
    out.code.reserve(trailer);
    for (const BasicBlock &bb : func.blocks) {
        for (const Instr &in : bb.instrs) {
            if (!regsFit(in, nregs))
                return false;
            BcInstr bc;
            bc.srcOp = static_cast<std::uint8_t>(in.op);
            bc.cls = static_cast<std::uint8_t>(opcodeClass(in.op));
            bc.dst = reg16(in.dst);
            bc.a = reg16(in.src1);
            bc.b = reg16(in.src2);
            bc.pc = in.pc;
            bc.imm = in.imm;

            if (isBinaryAlu(in.op)) {
                bc.op = static_cast<std::uint8_t>(
                    binaryBcOp(in.op, in.hasImm));
            } else if (isUnaryAlu(in.op)) {
                bc.op = static_cast<std::uint8_t>(unaryBcOp(in.op));
            } else {
                switch (in.op) {
                  case Opcode::LiI:
                    bc.op = static_cast<std::uint8_t>(BcOp::Li);
                    bc.imm = static_cast<std::int64_t>(
                        sem::fromInt(in.imm));
                    break;
                  case Opcode::LiF:
                    bc.op = static_cast<std::uint8_t>(BcOp::Li);
                    bc.imm = static_cast<std::int64_t>(
                        sem::fromF(in.fimm));
                    break;
                  case Opcode::LoadW:
                  case Opcode::LoadF:
                    bc.op = static_cast<std::uint8_t>(BcOp::Load);
                    break;
                  case Opcode::StoreW:
                  case Opcode::StoreF:
                    bc.op = static_cast<std::uint8_t>(BcOp::Store);
                    break;
                  case Opcode::Br:
                    bc.op = static_cast<std::uint8_t>(BcOp::Br);
                    bc.t0 = resolve(in.target0);
                    bc.t1 = resolve(in.target1);
                    break;
                  case Opcode::Jmp:
                    bc.op = static_cast<std::uint8_t>(BcOp::Jmp);
                    bc.t0 = resolve(in.target0);
                    break;
                  case Opcode::Call: {
                    SS_ASSERT(in.callee >= 0, "Call without callee in ",
                              func.name);
                    const Function &callee =
                        module.function(in.callee);
                    SS_ASSERT(in.args.size() ==
                                  callee.paramRegs.size(),
                              "arity mismatch lowering call to ",
                              callee.name);
                    bc.op = static_cast<std::uint8_t>(BcOp::Call);
                    bc.t0 = static_cast<std::uint32_t>(in.callee);
                    bc.t1 = static_cast<std::uint32_t>(pool.size());
                    bc.aux =
                        static_cast<std::uint32_t>(in.args.size());
                    const std::size_t callee_nregs =
                        std::max<std::size_t>(callee.numVirtRegs,
                                              callee.layout.total());
                    for (std::size_t i = 0; i < in.args.size(); ++i) {
                        if (callee.paramRegs[i] >= callee_nregs)
                            return false;
                        BcArgMove mv;
                        mv.dst = static_cast<std::uint16_t>(
                            callee.paramRegs[i]);
                        mv.src = reg16(in.args[i]);
                        mv.op = static_cast<std::uint8_t>(
                            callee.paramIsFloat[i] ? Opcode::MovF
                                                   : Opcode::MovI);
                        pool.push_back(mv);
                    }
                    break;
                  }
                  case Opcode::Ret:
                    bc.op = static_cast<std::uint8_t>(BcOp::Ret);
                    break;
                  default:
                    SS_PANIC("unhandled opcode lowering ", func.name,
                             ": ", opcodeName(in.op));
                }
            }
            out.code.push_back(bc);
        }
        if (!terminated(bb)) {
            BcInstr bc;
            bc.op = static_cast<std::uint8_t>(BcOp::FellOff);
            out.code.push_back(bc);
        }
    }

    // BadJump trailers, in first-use order (bad_jump values are
    // consecutive from `offset`).
    std::vector<std::pair<std::uint32_t, BlockId>> trailers;
    trailers.reserve(bad_jump.size());
    for (const auto &[block, idx] : bad_jump)
        trailers.emplace_back(idx, block);
    std::sort(trailers.begin(), trailers.end());
    for (const auto &[idx, block] : trailers) {
        SS_ASSERT(idx == out.code.size(), "trailer layout drift in ",
                  func.name);
        BcInstr bc;
        bc.op = static_cast<std::uint8_t>(BcOp::BadJump);
        bc.imm = static_cast<std::int64_t>(block);
        out.code.push_back(bc);
    }

    // A function with no blocks at all: entry ip 0 must trap like
    // the interpreter's loop-top check on block 0.
    if (out.code.empty()) {
        BcInstr bc;
        bc.op = static_cast<std::uint8_t>(BcOp::BadJump);
        bc.imm = 0;
        out.code.push_back(bc);
    }
    return true;
}

} // namespace

std::size_t
BcImage::codeBytes() const
{
    std::size_t bytes = argPool.size() * sizeof(BcArgMove);
    for (const BcFunction &f : funcs)
        bytes += f.code.size() * sizeof(BcInstr);
    return bytes;
}

std::optional<BcImage>
lowerModule(const Module &module)
{
    trace::ScopedSpan span("bytecode_lower", "compile");
    static metrics::Histogram &lower_s =
        metrics::Registry::global().histogram(
            "ssim_bytecode_lower_seconds",
            "wall time lowering a module to bytecode");
    metrics::ScopedTimer timer(lower_s);

    BcImage image;
    image.module = &module;
    image.funcs.resize(module.functions().size());
    for (std::size_t i = 0; i < module.functions().size(); ++i) {
        if (!lowerFunction(module, module.functions()[i],
                           image.funcs[i], image.argPool)) {
            fallbackCounter().inc();
            SS_DEBUG("bytecode", "lowering fell back on ",
                     module.functions()[i].name,
                     ": register file exceeds 16-bit encoding");
            return std::nullopt;
        }
    }
    if (span.armed())
        span.detail(module.sourceName + ": " +
                    std::to_string(image.funcs.size()) + " funcs, " +
                    std::to_string(image.codeBytes()) + " bytes");
    return image;
}

// ------------------------------------------------------------- VM

namespace {

/** Suspended caller state across a Call. */
struct VmFrame
{
    const BcFunction *fn;
    std::size_t base;
    std::uint32_t resumeIp;
    /** Caller's Call dst (kNone16 = value discarded). */
    std::uint16_t retDst;
    /** Return-value transfer move opcode (callee.retMoveOp). */
    std::uint8_t retMoveOp;
    /** Call-site pc (the transfer move bills to the site). */
    Pc retPc;
};

constexpr std::size_t kMoveClass =
    static_cast<std::size_t>(InstrClass::Move);

/**
 * Emit one dynamic record: register sources `a` and `b` (kNoReg when
 * absent, so a lone second source lands in srcs[0] as the
 * interpreter records it) and the effective address of a load or
 * store (-1 otherwise).  The issue engine takes the fields as its
 * narrow fused record; any other sink gets the interpreter's
 * DynInstr.
 */
template <class Sink>
SS_ALWAYS_INLINE void
emitRecord(Sink *sink, std::uint8_t op, Reg dst, Reg a, Reg b,
           std::int64_t addr, Pc pc)
{
    if constexpr (std::is_same_v<Sink, IssueEngine>) {
        sink->issue(static_cast<Opcode>(op), dst, a, b, addr, pc);
    } else {
        DynInstr di;
        di.op = static_cast<Opcode>(op);
        di.dst = dst;
        di.addSrc(a);
        di.addSrc(b);
        di.addr = addr;
        di.pc = pc;
        sink->emit(di);
    }
}

} // namespace

BytecodeVM::BytecodeVM(const BcImage &image, InterpOptions options)
    : image_(&image), opts_(options),
      mem_(*image.module, options.stackBytes)
{
    stack_top_ = mem_.stackBase();
}

template <class Sink, bool Traced>
RunResult
BytecodeVM::runWith(const std::string &entry, Sink *sink)
{
    trace::ScopedSpan span("bytecode", "sim");
    if (span.armed())
        span.detail(entry);
    executed_ = 0;
    class_counts_.fill(0);
    stack_top_ = mem_.stackBase();
    arena_.clear();

    RunResult result;
    try {
        FuncId id = image_->module->findFunction(entry);
        if (id == kNoFunc)
            sem::trapNoEntry(entry);
        const BcFunction &func =
            image_->funcs[static_cast<std::size_t>(id)];
        if (func.paramCount != 0)
            sem::trapEntryTakesArgs(entry);
        try {
            result.returnValue = execute<Sink, Traced>(
                static_cast<std::uint32_t>(id), sink);
        } catch (TrapException &e) {
            // Innermost-frame attribution, the explicit-stack twin
            // of the interpreter's per-frame catch.
            if (cur_fn_name_)
                e.setFunction(*cur_fn_name_);
            throw;
        }
    } catch (const TrapException &e) {
        result.trap = e.trap();
        result.trap.instruction = executed_;
    }
    result.instructions = executed_;
    result.classCounts = class_counts_;
    cur_fn_name_ = nullptr;
    return result;
}

template <class Sink, bool Traced>
std::uint64_t
BytecodeVM::execute(std::uint32_t entryIdx, Sink *sink)
{
    (void)sink; // unused in the untraced instantiation
    const BcImage &img = *image_;
    const BcArgMove *const pool = img.argPool.data();

    std::vector<VmFrame> frames;
    frames.reserve(64);
    int depth = 0;

    // --- Entry activation (mirrors Interpreter::execFrame). ---
    const BcFunction *fn = &img.funcs[entryIdx];
    cur_fn_name_ = &fn->name;
    if (depth >= sem::kMaxCallDepth)
        sem::trapCallDepthExceeded(fn->name);
    ++depth;
    std::size_t base = arena_.size();
    arena_.resize(base + fn->nregs, 0);
    {
        const std::int64_t fp = stack_top_;
        stack_top_ += fn->frameBytes;
        if (stack_top_ > mem_.limit())
            sem::trapStackOverflow(fn->name);
        if (fn->fpReg != BcInstr::kNone16)
            arena_[base + fn->fpReg] = sem::fromInt(fp);
    }

    std::uint64_t *regs = arena_.data() + base;
    const BcInstr *code = fn->code.data();
    std::uint32_t ip = 0;
    const BcInstr *in = nullptr;

    // Per-instruction bookkeeping, in the interpreter's exact order:
    // fuel (count first, message carries the count), deadline/fault
    // poll, class count.  BadJump/FellOff skip it — the interpreter
    // faults those at loop top, before counting.
#define VM_COUNT()                                                    \
    do {                                                              \
        if (++executed_ > opts_.fuel)                                 \
            sem::trapFuelExhausted(executed_);                        \
        sem::pollPoint(executed_);                                    \
        ++class_counts_[in->cls];                                     \
    } while (0)

    // Retire an instruction that stays in its frame: continue at
    // `next` and emit the interpreter's post-switch record (dst and
    // sources straight from the instruction, plus the effective
    // address of a load or store).  Every handler inlines its own
    // copy of the issue engine: one shared emit site, reached by a
    // jump from each handler, measured ~20-40% slower on the fused
    // loop (it loses the per-handler constant folding and branch
    // history).
#define VM_RETIRE(next, address)                                      \
    do {                                                              \
        ip = (next);                                                  \
        if constexpr (Traced)                                         \
            emitRecord(sink, in->srcOp, reg32(in->dst),               \
                       reg32(in->a), reg32(in->b), (address),         \
                       in->pc);                                       \
        VM_DISPATCH();                                                \
    } while (0)

#if SS_BC_THREADED
    // Label table in BcOp order — the X-macro lists keep the three
    // sites (enum, table, handlers) aligned by construction.
    static const void *const kLabels[] = {
#define X(n) &&L_##n##_RR, &&L_##n##_RI,
        SS_BC_BINARY_OPS(X)
#undef X
#define X(n) &&L_##n##_U,
        SS_BC_UNARY_OPS(X)
#undef X
        &&L_Li,   &&L_Load, &&L_Store,   &&L_Br,      &&L_Jmp,
        &&L_Call, &&L_Ret,  &&L_BadJump, &&L_FellOff,
    };
    static_assert(sizeof(kLabels) / sizeof(kLabels[0]) ==
                      static_cast<std::size_t>(BcOp::Count),
                  "dispatch table out of sync with BcOp");

#define VM_CASE(n) L_##n
#define VM_DISPATCH()                                                 \
    do {                                                              \
        in = &code[ip];                                               \
        goto *kLabels[in->op];                                        \
    } while (0)

    VM_DISPATCH();
#else
#define VM_CASE(n) case BcOp::n
#define VM_DISPATCH() goto vm_dispatch

vm_dispatch:
    in = &code[ip];
    switch (static_cast<BcOp>(in->op)) {
#endif

#define VM_JUMP(t)                                                    \
    do {                                                              \
        ip = (t);                                                     \
        VM_DISPATCH();                                                \
    } while (0)

    // Binary ALU/FP: the Opcode is a compile-time constant into the
    // force-inlined sem::evalBinary, which reduces to the one
    // operation (division keeps its zero trap).
#define X(n)                                                          \
    VM_CASE(n##_RR) : {                                               \
        VM_COUNT();                                                   \
        const std::uint64_t v = sem::evalBinary(                      \
            Opcode::n, regs[in->a], regs[in->b]);                     \
        if (in->dst != BcInstr::kNone16)                              \
            regs[in->dst] = v;                                        \
        VM_RETIRE(ip + 1, -1);                                        \
    }                                                                 \
    VM_CASE(n##_RI) : {                                               \
        VM_COUNT();                                                   \
        const std::uint64_t v = sem::evalBinary(                      \
            Opcode::n, regs[in->a],                                   \
            sem::fromInt(in->imm));                                   \
        if (in->dst != BcInstr::kNone16)                              \
            regs[in->dst] = v;                                        \
        VM_RETIRE(ip + 1, -1);                                        \
    }
    SS_BC_BINARY_OPS(X)
#undef X

#define X(n)                                                          \
    VM_CASE(n##_U) : {                                                \
        VM_COUNT();                                                   \
        const std::uint64_t v =                                       \
            sem::evalUnary(Opcode::n, regs[in->a]);                   \
        if (in->dst != BcInstr::kNone16)                              \
            regs[in->dst] = v;                                        \
        VM_RETIRE(ip + 1, -1);                                        \
    }
    SS_BC_UNARY_OPS(X)
#undef X

    VM_CASE(Li) : {
        VM_COUNT();
        if (in->dst != BcInstr::kNone16)
            regs[in->dst] = static_cast<std::uint64_t>(in->imm);
        VM_RETIRE(ip + 1, -1);
    }

    VM_CASE(Load) : {
        VM_COUNT();
        const std::int64_t addr =
            sem::asInt(regs[in->a]) + in->imm;
        const std::uint64_t v = mem_.loadWord(addr);
        if (in->dst != BcInstr::kNone16)
            regs[in->dst] = v;
        VM_RETIRE(ip + 1, addr);
    }

    VM_CASE(Store) : {
        VM_COUNT();
        const std::int64_t addr =
            sem::asInt(regs[in->a]) + in->imm;
        mem_.storeWord(addr, regs[in->b]);
        VM_RETIRE(ip + 1, addr);
    }

    VM_CASE(Br) : {
        VM_COUNT();
        VM_RETIRE(regs[in->a] != 0 ? in->t0 : in->t1, -1);
    }

    VM_CASE(Jmp) : {
        VM_COUNT();
        VM_RETIRE(in->t0, -1);
    }

    VM_CASE(Call) : {
        VM_COUNT();
        const BcFunction &callee = img.funcs[in->t0];
        // Trace before descending: the call record, then the
        // argument-transfer moves.  The moves are counted traced or
        // not, without fuel or poll checks — bookkeeping, not fetched
        // instructions — exactly like the interpreter.
        if constexpr (Traced) {
            emitRecord(sink, in->srcOp, reg32(in->dst), kNoReg, kNoReg,
                       -1, in->pc);
            for (std::uint32_t i = 0; i < in->aux; ++i) {
                const BcArgMove &mv = pool[in->t1 + i];
                emitRecord(sink, mv.op, mv.dst, mv.src, kNoReg, -1,
                           in->pc);
            }
        }
        executed_ += in->aux;
        class_counts_[kMoveClass] += in->aux;

        if (depth >= sem::kMaxCallDepth)
            sem::trapCallDepthExceeded(callee.name);
        ++depth;
        frames.push_back(VmFrame{fn, base, ip + 1, in->dst,
                                 callee.retMoveOp, in->pc});

        const std::size_t nbase = arena_.size();
        arena_.resize(nbase + callee.nregs, 0);
        const std::int64_t fp = stack_top_;
        stack_top_ += callee.frameBytes;
        if (stack_top_ > mem_.limit()) {
            cur_fn_name_ = &callee.name;
            sem::trapStackOverflow(callee.name);
        }
        std::uint64_t *nregs = arena_.data() + nbase;
        if (callee.fpReg != BcInstr::kNone16)
            nregs[callee.fpReg] = sem::fromInt(fp);
        const std::uint64_t *oregs = arena_.data() + base;
        for (std::uint32_t i = 0; i < in->aux; ++i) {
            const BcArgMove &mv = pool[in->t1 + i];
            nregs[mv.dst] = oregs[mv.src];
        }

        fn = &callee;
        cur_fn_name_ = &fn->name;
        code = fn->code.data();
        base = nbase;
        regs = arena_.data() + base;
        VM_JUMP(0);
    }

    VM_CASE(Ret) : {
        VM_COUNT();
        if constexpr (Traced)
            emitRecord(sink, in->srcOp, reg32(in->dst), reg32(in->a),
                       reg32(in->b), -1, in->pc);
        const std::uint16_t ret_reg = in->a;
        const std::uint64_t rv =
            ret_reg != BcInstr::kNone16 ? regs[ret_reg] : 0;

        arena_.resize(base);
        stack_top_ -= fn->frameBytes;
        --depth;
        if (frames.empty())
            return rv;

        const VmFrame f = frames.back();
        frames.pop_back();
        fn = f.fn;
        cur_fn_name_ = &fn->name;
        code = fn->code.data();
        base = f.base;
        regs = arena_.data() + base;

        // Return-value transfer move, only when the callee actually
        // returned a register.
        if (f.retDst != BcInstr::kNone16) {
            regs[f.retDst] = rv;
            if (ret_reg != BcInstr::kNone16) {
                if constexpr (Traced)
                    emitRecord(sink, f.retMoveOp, f.retDst, ret_reg,
                               kNoReg, -1, f.retPc);
                ++executed_;
                ++class_counts_[kMoveClass];
            }
        }
        VM_JUMP(f.resumeIp);
    }

    VM_CASE(BadJump) : {
        // No VM_COUNT(): the interpreter traps invalid targets at
        // loop top, before the instruction counter bumps.
        sem::trapBadJump(fn->name, in->imm);
    }

    VM_CASE(FellOff) : {
        SS_PANIC("fell off block in ", fn->name);
    }

#if !SS_BC_THREADED
    }
    SS_PANIC("bytecode: invalid dispatch opcode");
#endif

#undef VM_COUNT
#undef VM_RETIRE
#undef VM_CASE
#undef VM_DISPATCH
#undef VM_JUMP
}

/** Untraced stand-in; never called (guarded by Traced=false). */
namespace {
struct NullTraceSink
{
    void emit(const DynInstr &) {}
};
} // namespace

RunResult
BytecodeVM::run(const std::string &entry, TraceSink *sink)
{
    if (sink == nullptr)
        return runWith<NullTraceSink, false>(entry, nullptr);
    return runWith<TraceSink, true>(entry, sink);
}

RunResult
BytecodeVM::runTimed(const std::string &entry, IssueEngine &engine)
{
    return runWith<IssueEngine, true>(entry, &engine);
}

} // namespace ilp
