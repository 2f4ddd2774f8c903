/**
 * @file
 * Dynamic instruction records and trace sinks.
 *
 * The executor (sim/exec.hh) and its oracle, the interpreter, run a
 * module and stream one DynInstr per executed instruction into a
 * TraceSink.  Sinks include
 * the timing engine (sim/issue.hh), the class-frequency profiler, the
 * cache model, and an in-memory buffer.
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

/** Fans one stream out to several sinks. */
class TeeSink : public TraceSink
{
  public:
    void addSink(TraceSink *sink) { sinks_.push_back(sink); }
    void emit(const DynInstr &di) override
    {
        for (auto *s : sinks_)
            s->emit(di);
    }

  private:
    std::vector<TraceSink *> sinks_;
};

/** Buffers the whole trace in memory, so tests and microbenchmarks
 *  can inspect or re-time one execution (sweeps time every cell
 *  live and never buffer). */
class TraceBuffer : public TraceSink
{
  public:
    void emit(const DynInstr &di) override { trace_.push_back(di); }
    const std::vector<DynInstr> &trace() const { return trace_; }
    std::size_t size() const { return trace_.size(); }
    void clear() { trace_.clear(); }

    /** Replay the buffered trace into another sink. */
    void replay(TraceSink &sink) const
    {
        for (const auto &di : trace_)
            sink.emit(di);
    }

  private:
    std::vector<DynInstr> trace_;
};

/** Counts dynamic instructions per class (Table 2-1 measured mix). */
class ClassProfileSink : public TraceSink
{
  public:
    ClassProfileSink() { counts_.fill(0); }
    void emit(const DynInstr &di) override
    {
        ++counts_[static_cast<std::size_t>(di.cls())];
        ++total_;
    }
    const ClassCounts &counts() const { return counts_; }
    std::uint64_t total() const { return total_; }
    ClassFrequencies frequencies() const
    {
        return normalizeCounts(counts_);
    }

  private:
    ClassCounts counts_{};
    std::uint64_t total_ = 0;
};

} // namespace ilp

#endif // SUPERSYM_SIM_TRACE_HH
