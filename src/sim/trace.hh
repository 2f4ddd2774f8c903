/**
 * @file
 * Dynamic instruction records and trace sinks.
 *
 * The interpreter (sim/interp.hh), and the bytecode VM's generic
 * run(), stream one DynInstr per executed instruction into a
 * TraceSink: the issue engine (sim/issue.hh), the reference stepper
 * (sim/issue_ref.hh), or an in-memory buffer.  That per-record path
 * is the oracle's way in.  Production runs take the VM's fused
 * runTimed (sim/bytecode.hh), which hands the engine and the data
 * cache one straight-line segment at a time and builds no records.
 */

#ifndef SUPERSYM_SIM_TRACE_HH
#define SUPERSYM_SIM_TRACE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/metrics/metrics.hh"
#include "isa/isa.hh"
#include "support/inline.hh"
#include "support/logging.hh"

namespace ilp {

/** One executed instruction.  Fields are ordered to pack into 40
 *  bytes: a buffered trace streams one record per instruction. */
struct DynInstr
{
    Opcode op = Opcode::Jmp;
    std::uint8_t numSrcs = 0;
    /** Destination register; kNoReg if none. */
    Reg dst = kNoReg;
    /** Source registers actually read (up to 4 recorded). */
    std::array<Reg, 4> srcs{kNoReg, kNoReg, kNoReg, kNoReg};
    /** Static instruction id (Module::assignPcs order); kNoPc when
     *  the executed module never went through pc assignment.
     *  Synthetic call-convention moves carry the Call site's pc. */
    Pc pc = kNoPc;
    /** Byte address for loads/stores; -1 otherwise. */
    std::int64_t addr = -1;

    InstrClass cls() const { return opcodeClass(op); }

    SS_ALWAYS_INLINE void
    addSrc(Reg r)
    {
        if (r == kNoReg)
            return;
        SS_ASSERT(numSrcs < srcs.size(),
                  "DynInstr source overflow: no opcode reads more "
                  "than 4 registers");
        srcs[numSrcs++] = r;
    }

    bool
    operator==(const DynInstr &o) const
    {
        return op == o.op && dst == o.dst && srcs == o.srcs &&
               numSrcs == o.numSrcs && addr == o.addr && pc == o.pc;
    }
    bool operator!=(const DynInstr &o) const { return !(*this == o); }
};

static_assert(sizeof(DynInstr) == 40,
              "DynInstr is the buffered-trace footprint; keep it packed");

/** Receives the dynamic instruction stream. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void emit(const DynInstr &di) = 0;
};

/** Buffers the whole trace in memory, so tests can inspect or
 *  re-time one execution (every production run is timed live and
 *  never buffers). */
class TraceBuffer : public TraceSink
{
  public:
    void emit(const DynInstr &di) override { trace_.push_back(di); }
    const std::vector<DynInstr> &trace() const { return trace_; }
    std::size_t size() const { return trace_.size(); }
    void clear() { trace_.clear(); }

  private:
    std::vector<DynInstr> trace_;
};

} // namespace ilp

#endif // SUPERSYM_SIM_TRACE_HH
