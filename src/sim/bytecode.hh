/**
 * @file
 * The bytecode execution backend: a flat, pre-resolved encoding of a
 * Module plus a threaded-dispatch VM that executes it.
 *
 * The IR-walk interpreter (sim/interp.hh) re-derives everything per
 * executed instruction: block bounds, operand presence, immediate
 * vs. register form, call frames, branch-target validity.  The
 * bytecode compiler (lowerModule) pays those costs once per *static*
 * instruction instead, producing a BcImage:
 *
 *  - one fixed-width BcInstr per IR instruction, with the dispatch
 *    opcode split by addressing mode (reg-reg vs. reg-imm) so the VM
 *    never tests `hasImm`;
 *  - branch targets resolved to bytecode indices — invalid targets
 *    point at per-block-id BadJump trailer ops, so the hot loop has
 *    no block-bounds check at all (the interpreter's per-iteration
 *    loop-top check becomes a lowering-time decision);
 *  - call frames pre-bound: callee index, register-file size, frame
 *    bytes, frame-pointer slot and the calling convention's
 *    argument-transfer moves all live in the image (BcArgMove pool);
 *  - the source pc and instruction class pre-stamped on every op.
 *
 * The VM (BytecodeVM) executes the image with computed-goto threaded
 * dispatch (a plain switch on toolchains without the extension) and
 * produces the *same observable artifacts* as Interpreter::run: the
 * identical DynInstr stream, the same trap records built by
 * sim/semantics.hh, the same deadline-poll and fault-injection
 * cadence (sem::pollPoint at
 * cancel::kDeadlinePollInterval, site sem::kFaultSite), and the same
 * RunResult bookkeeping.  tests/bytecode_test.cc holds the
 * differential suite that enforces the contract.
 *
 * Programs the encoding cannot represent (a register file larger
 * than 16-bit indices) fail lowering with std::nullopt; the backend
 * seam (sim/exec.hh) then falls back to the interpreter, so the VM
 * never needs a slow path.
 */

#ifndef SUPERSYM_SIM_BYTECODE_HH
#define SUPERSYM_SIM_BYTECODE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/module.hh"
#include "sim/interp.hh"
#include "sim/issue.hh"
#include "sim/memory.hh"
#include "sim/trace.hh"

namespace ilp {

// X-macro master lists.  Expansion order is the BcOp enum order and
// the VM's dispatch-table order — the three sites that consume these
// lists (enum, label table, handler bodies) must all use them, never
// hand-written sequences.
#define SS_BC_BINARY_OPS(X)                                           \
    X(AddI) X(SubI) X(MulI) X(DivI) X(RemI)                           \
    X(CmpEqI) X(CmpNeI) X(CmpLtI) X(CmpLeI) X(CmpGtI) X(CmpGeI)       \
    X(AndI) X(OrI) X(XorI) X(ShlI) X(ShrAI) X(ShrLI)                  \
    X(AddF) X(SubF) X(MulF) X(DivF)                                   \
    X(CmpEqF) X(CmpNeF) X(CmpLtF) X(CmpLeF) X(CmpGtF) X(CmpGeF)

#define SS_BC_UNARY_OPS(X)                                            \
    X(NotI) X(MovI) X(MovF) X(NegF) X(AbsF) X(CvtIF) X(CvtFI)

/**
 * Dispatch opcodes.  Binary ALU/FP ops come in _RR (second operand
 * is a register) and _RI (second operand is the pre-converted
 * immediate) forms; the VM handler passes the ilp::Opcode as a
 * compile-time constant into the force-inlined sem::evalBinary, so
 * each handler computes just its one operation.
 */
enum class BcOp : std::uint8_t
{
#define X(n) n##_RR, n##_RI,
    SS_BC_BINARY_OPS(X)
#undef X
#define X(n) n##_U,
    SS_BC_UNARY_OPS(X)
#undef X
    /** dst <- imm (value bits; LiI and LiF lower identically). */
    Li,
    /** dst <- mem[a + imm] (LoadW / LoadF). */
    Load,
    /** mem[a + imm] <- b (StoreW / StoreF). */
    Store,
    /** if (a != 0) goto t0 else goto t1 (bytecode indices). */
    Br,
    /** goto t0. */
    Jmp,
    /** call funcs[t0] with argPool[t1 .. t1+aux). */
    Call,
    /** return a (kNone16 = void). */
    Ret,
    /** Trailer: control reached a branch whose target block did not
     *  exist; raises E0404 without counting an instruction (the
     *  interpreter traps at loop top, before its counter bump). */
    BadJump,
    /** Trailer: control ran past a block with no terminator — a
     *  malformed-IR panic, mirroring the interpreter's assert. */
    FellOff,

    Count
};

/**
 * One bytecode instruction: 40 bytes, fixed width, trivially
 * copyable.  Fields are overloaded per BcOp as documented on the
 * enum; srcOp/pc/dst/a/b feed record emission so the traced stream
 * is bit-identical to the interpreter's (a register operand is
 * traced as a source exactly when it is present, not kNone16).
 */
struct BcInstr
{
    /** 16-bit register encoding of kNoReg. */
    static constexpr std::uint16_t kNone16 = 0xffff;

    /** ALU immediate (pre-converted value bits for Li), memory
     *  displacement, or the offending BlockId for BadJump. */
    std::int64_t imm = 0;
    /** Branch target / callee function index. */
    std::uint32_t t0 = 0;
    /** Branch fallthrough target / argument-pool offset. */
    std::uint32_t t1 = 0;
    /** Argument count for Call. */
    std::uint32_t aux = 0;
    /** Static instruction id (verbatim, kNoPc included). */
    Pc pc = kNoPc;
    std::uint16_t dst = kNone16;
    std::uint16_t a = kNone16;
    std::uint16_t b = kNone16;
    /** BcOp (dispatch index). */
    std::uint8_t op = 0;
    /** Original ilp::Opcode (DynInstr emission). */
    std::uint8_t srcOp = 0;
    /** Pre-computed InstrClass of srcOp. */
    std::uint8_t cls = 0;
};

static_assert(sizeof(BcInstr) == 40,
              "BcInstr is the static-code footprint; keep it packed");

/**
 * One calling-convention move, pre-bound at lowering: callee
 * parameter register <- caller argument register.  Serves double
 * duty as the frame-push copy descriptor and (when tracing) the
 * synthetic MovI/MovF DynInstr the interpreter emits per argument.
 */
struct BcArgMove
{
    std::uint16_t dst = 0;
    std::uint16_t src = 0;
    /** Opcode::MovF for float params, Opcode::MovI otherwise. */
    std::uint8_t op = 0;
};

struct BcFunction
{
    std::string name;
    std::vector<BcInstr> code;
    /** Register-file slots per activation (interpreter-identical:
     *  max(numVirtRegs, layout.total())). */
    std::uint32_t nregs = 0;
    std::int64_t frameBytes = 0;
    /** Frame-pointer slot, kNone16 when absent or out of range. */
    std::uint16_t fpReg = BcInstr::kNone16;
    std::uint32_t paramCount = 0;
    /** Opcode for the return-value transfer move (MovI / MovF). */
    std::uint8_t retMoveOp = 0;
};

/**
 * A lowered module.  funcs[i] corresponds to module.function(i), so
 * FuncId doubles as the bytecode function index and Call sites
 * resolve with no lookup.
 */
struct BcImage
{
    const Module *module = nullptr;
    std::vector<BcFunction> funcs;
    std::vector<BcArgMove> argPool;

    /** Static code size (the compile-telemetry payload). */
    std::size_t codeBytes() const;
};

/**
 * Lower a module to bytecode.  Returns std::nullopt — after counting
 * a ssim_bytecode_fallbacks_total metric — when the image cannot
 * represent the program (any function whose register file exceeds
 * 16-bit indices); the caller falls back to the interpreter.
 * Records a "bytecode_lower" compile span and the
 * ssim_bytecode_lower_seconds histogram.
 */
std::optional<BcImage> lowerModule(const Module &module);

/**
 * Executes a BcImage with the Interpreter's exact observable
 * contract (see file comment).  One VM owns one Memory, like one
 * Interpreter; run() resets all execution state, so a VM is reusable
 * across runs including after a trap.
 *
 * The fused entry point (runTimed) is the hot-path variant: every
 * dispatch handler hands its instruction to IssueEngine::issue(), a
 * narrower record than DynInstr, which is force-inlined (see
 * support/inline.hh), so the loop makes no call per instruction.
 * run() with a TraceSink* keeps the generic virtual-dispatch
 * contract, and a null sink selects an untraced specialization with
 * zero per-instruction trace work.
 */
class BytecodeVM
{
  public:
    explicit BytecodeVM(const BcImage &image, InterpOptions options = {});

    /** Generic entry point: virtual per-record emit (or none). */
    RunResult run(const std::string &entry = "main",
                  TraceSink *sink = nullptr);

    /** Fused: time the run in `engine` as it executes; the same
     *  results as run(entry, &engine). */
    RunResult runTimed(const std::string &entry, IssueEngine &engine);

    const Memory &memory() const { return mem_; }
    Memory &memory() { return mem_; }

  private:
    template <class Sink, bool Traced>
    RunResult runWith(const std::string &entry, Sink *sink);
    template <class Sink, bool Traced>
    std::uint64_t execute(std::uint32_t entryIdx, Sink *sink);

    const BcImage *image_;
    InterpOptions opts_;
    Memory mem_;

    std::vector<std::uint64_t> arena_;
    std::uint64_t executed_ = 0;
    ClassCounts class_counts_{};
    std::int64_t stack_top_ = 0;
    /** Innermost active function (trap attribution at unwind). */
    const std::string *cur_fn_name_ = nullptr;
};

} // namespace ilp

#endif // SUPERSYM_SIM_BYTECODE_HH
