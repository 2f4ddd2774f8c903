#include "sim/interp.hh"

#include "sim/cancel.hh"
#include "sim/semantics.hh"
#include "support/faultinject.hh"
#include "support/inline.hh"
#include "support/logging.hh"
#include "support/trace.hh"

namespace ilp {

namespace {

// The shared ALU semantics, called out of line.  They are force-
// inlined for the bytecode VM's handlers; inlined here they would
// grow execFrame's stack frame (by ~20% in a sanitizer build), and
// execFrame recurses once per MT call, up to sem::kMaxCallDepth deep.
SS_NOINLINE std::uint64_t
evalBinaryOp(Opcode op, std::uint64_t a, std::uint64_t b)
{
    return sem::evalBinary(op, a, b);
}

SS_NOINLINE std::uint64_t
evalUnaryOp(Opcode op, std::uint64_t a)
{
    return sem::evalUnary(op, a);
}

} // namespace

Interpreter::Interpreter(const Module &module, InterpOptions options)
    : module_(module), opts_(options), mem_(module, options.stackBytes)
{
    stack_top_ = mem_.stackBase();
}

RunResult
Interpreter::run(const std::string &entry, TraceSink *sink)
{
    trace::ScopedSpan span("interp", "sim");
    if (span.armed())
        span.detail(entry);
    sink_ = sink;
    executed_ = 0;
    class_counts_.fill(0);
    stack_top_ = mem_.stackBase();
    call_depth_ = 0;
    arena_.clear();

    RunResult result;
    try {
        FuncId id = module_.findFunction(entry);
        if (id == kNoFunc)
            sem::trapNoEntry(entry);
        const Function &func = module_.function(id);
        if (!func.paramRegs.empty())
            sem::trapEntryTakesArgs(entry);
        result.returnValue = callFunction(func, {});
    } catch (const TrapException &e) {
        // Containment boundary: every frame below has unwound its
        // bookkeeping, so the interpreter stays usable.
        result.trap = e.trap();
        result.trap.instruction = executed_;
    }
    result.instructions = executed_;
    result.classCounts = class_counts_;
    sink_ = nullptr;
    return result;
}

Json
exportClassMix(const ClassCounts &counts)
{
    std::uint64_t total = 0;
    for (std::uint64_t c : counts)
        total += c;
    Json cg = Json::object();
    Json fg = Json::object();
    for (std::size_t c = 0; c < kNumInstrClasses; ++c) {
        if (counts[c] == 0)
            continue;
        std::string name(
            instrClassName(static_cast<InstrClass>(c)));
        cg.set(name, Json(counts[c]));
        fg.set(name, Json(static_cast<double>(counts[c]) /
                          static_cast<double>(total)));
    }
    Json g = Json::object();
    g.set("total", Json(total));
    g.set("counts", std::move(cg));
    g.set("fractions", std::move(fg));
    return g;
}

std::uint64_t
Interpreter::callFunction(const Function &func,
                          const std::vector<std::uint64_t> &args)
{
    try {
        return execFrame(func, args);
    } catch (TrapException &e) {
        // Attribute the fault to the innermost frame (memory traps
        // are raised below the frame that knows the function name).
        e.setFunction(func.name);
        throw;
    }
}

std::uint64_t
Interpreter::execFrame(const Function &func,
                       const std::vector<std::uint64_t> &args)
{
    SS_ASSERT(args.size() == func.paramRegs.size(),
              "arity mismatch calling ", func.name);
    if (call_depth_ >= sem::kMaxCallDepth)
        sem::trapCallDepthExceeded(func.name);
    ++call_depth_;

    const std::size_t nregs = func.registerFileSize();
    const std::size_t base = arena_.size();
    arena_.resize(base + nregs, 0);

    // Frame allocation.
    std::int64_t fp = stack_top_;
    stack_top_ += func.frameBytes;

    // Per-frame unwinder: restores the register arena, stack top and
    // call depth on both normal return and trap unwind, keeping the
    // interpreter reusable after a fault.
    struct Frame
    {
        Interpreter &self;
        const Function &func;
        std::size_t base;
        ~Frame()
        {
            self.arena_.resize(base);
            self.stack_top_ -= func.frameBytes;
            --self.call_depth_;
        }
    } frame{*this, func, base};

    if (stack_top_ > mem_.limit())
        sem::trapStackOverflow(func.name);

    Reg fp_reg = func.framePointer();
    if (fp_reg != kNoReg && fp_reg < nregs)
        arena_[base + fp_reg] = sem::fromInt(fp);
    for (std::size_t i = 0; i < args.size(); ++i)
        arena_[base + func.paramRegs[i]] = args[i];

    auto get = [&](Reg r) -> std::uint64_t {
        SS_ASSERT(r < nregs, "register v", r, " out of range in ",
                  func.name);
        return arena_[base + r];
    };

    std::uint64_t ret_value = 0;
    BlockId block = 0;
    std::size_t ip = 0;
    bool running = true;

    while (running) {
        if (block < 0 ||
            static_cast<std::size_t>(block) >= func.blocks.size())
            sem::trapBadJump(func.name, block);
        const BasicBlock &bb = func.blocks[block];
        SS_ASSERT(ip < bb.instrs.size(), "fell off block in ",
                  func.name);
        const Instr &in = bb.instrs[ip];

        if (++executed_ > opts_.fuel)
            sem::trapFuelExhausted(executed_);
        // Watchdog / chaos poll point, amortized to one branch per
        // instruction (cancel::kDeadlinePollInterval cadence, shared
        // with the bytecode VM).
        sem::pollPoint(executed_);
        ++class_counts_[static_cast<std::size_t>(opcodeClass(in.op))];

        DynInstr di;
        if (sink_) {
            di.op = in.op;
            di.dst = in.dst;
            di.pc = in.pc;
        }

        // Fetch ALU operands.
        auto rhs = [&]() -> std::uint64_t {
            return in.hasImm ? sem::fromInt(in.imm) : get(in.src2);
        };

        std::uint64_t value = 0;
        bool writes = true;
        std::int64_t next_block = -1;

        switch (in.op) {
          case Opcode::LiI:
            value = sem::fromInt(in.imm);
            break;
          case Opcode::LiF:
            value = sem::fromF(in.fimm);
            break;
          case Opcode::LoadW:
          case Opcode::LoadF: {
            std::int64_t addr = sem::asInt(get(in.src1)) + in.imm;
            value = mem_.loadWord(addr);
            if (sink_)
                di.addr = addr;
            break;
          }
          case Opcode::StoreW:
          case Opcode::StoreF: {
            std::int64_t addr = sem::asInt(get(in.src1)) + in.imm;
            mem_.storeWord(addr, get(in.src2));
            if (sink_)
                di.addr = addr;
            writes = false;
            break;
          }
          case Opcode::Br:
            next_block = get(in.src1) != 0 ? in.target0 : in.target1;
            writes = false;
            break;
          case Opcode::Jmp:
            next_block = in.target0;
            writes = false;
            break;
          case Opcode::Call: {
            const Function &callee = module_.function(in.callee);
            // Trace the call before descending so the stream is in
            // fetch order, followed by explicit argument-transfer
            // moves (the calling convention's visible cost, which
            // also ties the callee's parameter registers to the
            // caller's dataflow in the timing model).  The moves
            // count whether or not a sink is attached.
            if (sink_) {
                sink_->emit(di);
                for (std::size_t i = 0; i < in.args.size(); ++i) {
                    DynInstr mv;
                    mv.op = callee.paramIsFloat[i] ? Opcode::MovF
                                                   : Opcode::MovI;
                    mv.dst = callee.paramRegs[i];
                    mv.addSrc(in.args[i]);
                    // Calling-convention overhead bills to the site.
                    mv.pc = in.pc;
                    sink_->emit(mv);
                }
            }
            executed_ += in.args.size();
            class_counts_[static_cast<std::size_t>(InstrClass::Move)] +=
                in.args.size();
            std::vector<std::uint64_t> call_args;
            call_args.reserve(in.args.size());
            for (Reg a : in.args)
                call_args.push_back(get(a));
            std::uint64_t rv = callFunction(callee, call_args);
            if (in.dst != kNoReg) {
                arena_[base + in.dst] = rv;
                // Return-value transfer move.
                if (last_ret_reg_ != kNoReg) {
                    if (sink_) {
                        DynInstr mv;
                        mv.op = callee.returnsFloat ? Opcode::MovF
                                                    : Opcode::MovI;
                        mv.dst = in.dst;
                        mv.addSrc(last_ret_reg_);
                        mv.pc = in.pc;
                        sink_->emit(mv);
                    }
                    ++executed_;
                    ++class_counts_[static_cast<std::size_t>(
                        InstrClass::Move)];
                }
            }
            ++ip;
            continue; // trace already emitted
          }
          case Opcode::Ret:
            if (in.src1 != kNoReg)
                ret_value = get(in.src1);
            last_ret_reg_ = in.src1;
            running = false;
            writes = false;
            break;
          default:
            // Every computational opcode: evaluated by the shared
            // semantics (sim/semantics.hh), the same code the
            // bytecode VM runs.
            if (isBinaryAlu(in.op))
                value = evalBinaryOp(in.op, get(in.src1), rhs());
            else if (isUnaryAlu(in.op))
                value = evalUnaryOp(in.op, get(in.src1));
            else
                SS_PANIC("unhandled opcode in interpreter: ",
                         opcodeName(in.op));
        }

        if (writes && in.dst != kNoReg)
            arena_[base + in.dst] = value;

        if (sink_) {
            // Inline source collection (forEachSrc's std::function is
            // too hot for this path).
            if (in.src1 != kNoReg)
                di.addSrc(in.src1);
            if (in.src2 != kNoReg)
                di.addSrc(in.src2);
            sink_->emit(di);
        }

        if (next_block >= 0) {
            block = static_cast<BlockId>(next_block);
            ip = 0;
        } else {
            ++ip;
        }
    }

    return ret_value; // Frame unwinder restores the bookkeeping.
}

} // namespace ilp
