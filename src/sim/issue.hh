/**
 * @file
 * The timing simulator: a strictly in-order issue engine running in
 * minor cycles (1/m of a base cycle), consuming the dynamic trace.
 *
 * Per Section 2 and the §2.3.2 exclusion, instructions never issue out
 * of order: "We will not consider superscalar machines or any other
 * machines that issue instructions out of order."  An instruction
 * issues in the earliest minor cycle t such that:
 *
 *  1. t is not before the previous instruction's issue cycle;
 *  2. fewer than `issueWidth` instructions have issued in t;
 *  3. every register source is ready (producer latency elapsed);
 *  4. loads wait for earlier stores to the same word to complete,
 *     stores wait for earlier stores to the same word (memory RAW /
 *     WAW through actual addresses);
 *  5. a functional-unit copy serving its class is free (class
 *     conflicts, §2.3.2) — unless the machine has fully duplicated
 *     units;
 *  6. if `issueAcrossBranches` is false, t is strictly after the
 *     latest branch's issue cycle.
 *
 * Branch prediction is perfect and control transfers add no latency
 * (§2.1's "no contribution to control latency" assumption).  Register
 * WAW is resolved by overwrite (last writer wins; no interlock) — see
 * DESIGN.md.  Elapsed time in base cycles is minor cycles / m, making
 * superscalar and superpipelined machines directly comparable.
 *
 * RefIssueStepper (sim/issue_ref.hh) restates this rule naively, one
 * minor cycle at a time; tests/issue_ref_test.cc holds the engine to
 * it exactly.
 */

#ifndef SUPERSYM_SIM_ISSUE_HH
#define SUPERSYM_SIM_ISSUE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "core/machine/machine.hh"
#include "sim/trace.hh"
#include "support/inline.hh"
#include "support/json.hh"
#include "support/statistics.hh"

namespace ilp {

/**
 * Why an issue slot went unused (the paper's lost-parallelism
 * taxonomy, §4): every minor cycle of the issue period offers
 * `issueWidth` slots; each slot either issues an instruction or is
 * charged to exactly one cause.
 */
enum class StallCause : int
{
    /** A register or memory (same-word) operand was not yet ready —
     *  operation-latency interlock. */
    RawLatency = 0,
    /** Every functional-unit copy serving the class was busy
     *  (§2.3.2 class conflicts / issue latency). */
    UnitConflict,
    /** The machine does not issue across branch boundaries and a
     *  branch closed the cycle. */
    BranchFence,
    /** No instruction arrived to claim the slot: the partially filled
     *  final cycle when the trace drains. */
    FrontendDrain,
};

constexpr std::size_t kNumStallCauses = 4;

const char *stallCauseName(StallCause cause);

/** Lost issue slots per cause, in minor-cycle issue slots. */
struct StallBreakdown
{
    std::array<std::uint64_t, kNumStallCauses> slots{};

    std::uint64_t &operator[](StallCause c)
    {
        return slots[static_cast<std::size_t>(c)];
    }
    std::uint64_t operator[](StallCause c) const
    {
        return slots[static_cast<std::size_t>(c)];
    }
    std::uint64_t total() const;
};

/**
 * One issued instruction on the simulated timeline (recorded only
 * when timeline capture is enabled; feeds --trace-events).
 */
struct IssueEvent
{
    /** Issue minor cycle. */
    std::uint64_t cycle = 0;
    /** Issue slot within the cycle (0..issueWidth-1). */
    std::uint16_t slot = 0;
    /** Operation latency in minor cycles. */
    std::uint32_t latencyMinor = 1;
    InstrClass cls = InstrClass::IntAdd;
};

/**
 * Per-static-instruction timing counters (one record per pc), filled
 * by the issue engine when profiling is enabled.  Lost slots are
 * charged to the instruction that was *waiting* to issue — the
 * stalled consumer, not the producer it waited on.
 */
struct PcCounters
{
    /** Times this static instruction issued (slots it used). */
    std::uint64_t issued = 0;
    /** Lost slots charged while this instruction waited, per cause. */
    std::array<std::uint64_t, kNumStallCauses> stallSlots{};

    std::uint64_t
    stallTotal() const
    {
        std::uint64_t t = 0;
        for (std::uint64_t s : stallSlots)
            t += s;
        return t;
    }
};

class IssueEngine final : public TraceSink
{
  public:
    explicit IssueEngine(const MachineConfig &config);

    /** The per-record hot path, defined below; TraceSink* callers
     *  reach the out-of-line copy through the vtable. */
    void emit(const DynInstr &di) override;

    /**
     * emit() from the bytecode VM's narrower fused record: at most
     * two register sources, `a` and `b`, each kNoReg when absent, and
     * the byte address of a load or store (-1 otherwise).  Exactly
     * the effect of emit() on the equivalent DynInstr.  Force-inlined
     * (support/inline.hh): the fused loop must not pay a call per
     * instruction.
     */
    void issue(Opcode op, Reg dst, Reg a, Reg b, std::int64_t addr,
               Pc pc);

    /** Dynamic instructions issued so far. */
    std::uint64_t instructions() const;

    /** Elapsed minor cycles until the last instruction completes. */
    std::uint64_t minorCycles() const;

    /** Elapsed time in base cycles (minor cycles / m). */
    double baseCycles() const;

    /**
     * Instructions per base cycle = dynamic instructions / base
     * cycles; on an ideal machine this is the available parallelism
     * actually exploited.
     */
    double instrPerBaseCycle() const;

    /**
     * issueCounts()[k] = number of minor cycles in which exactly k
     * instructions issued (k = 0..issueWidth), up to the last issue.
     */
    std::vector<std::uint64_t> issueCounts() const;

    // ------------------------------------------------- observability

    /**
     * Minor cycles of the issue period: cycle 0 through the cycle of
     * the last issue, inclusive (0 before anything issues).  Differs
     * from minorCycles() by the completion tail of in-flight latency.
     */
    std::uint64_t issuePeriodMinorCycles() const;

    /**
     * Issue slots that went unused during the issue period:
     * issueWidth * issuePeriodMinorCycles() - instructions().
     */
    std::uint64_t lostIssueSlots() const;

    /**
     * Per-cause attribution of every lost slot.  Invariant (asserted
     * by tests): stallBreakdown().total() == lostIssueSlots().
     */
    StallBreakdown stallBreakdown() const;

    /** Minor cycles between the last issue and the last completion
     *  (latency drain; not issue slots, reported separately). */
    std::uint64_t completionTailMinorCycles() const;

    /** Dynamic instructions issued per class. */
    const ClassCounts &classIssued() const { return class_issued_; }

    /**
     * Enable per-pc profiling for a program of `pcCount` static
     * instructions.  Off by default and zero-cost when off (one
     * predictable branch per emit).  Index pcCount is the bucket for
     * records with pc == kNoPc (modules that never went through
     * Module::assignPcs()).
     */
    void enableProfile(std::size_t pcCount);
    bool profileEnabled() const { return profile_enabled_; }

    /**
     * Snapshot of the per-pc counters, pcCount + 1 records (last =
     * unattributed bucket).  FrontendDrain of the still-open final
     * cycle is charged to the last-issued pc so the records reconcile
     * exactly with the aggregates:
     *   sum(issued)         == instructions()
     *   sum(stallSlots[c])  == stallBreakdown()[c]  for every cause
     *   sum(issued + stall) == issueWidth * issuePeriodMinorCycles()
     */
    std::vector<PcCounters> profileCounters() const;

    /**
     * Record the issue timeline (for --trace-events).  At most `limit`
     * events are kept; later issues only bump timelineDropped().
     */
    void recordTimeline(std::size_t limit);
    const std::vector<IssueEvent> &timeline() const
    {
        return timeline_;
    }
    std::uint64_t timelineDropped() const { return timeline_dropped_; }

    /**
     * Everything above as the stats tree's "issue" object: totals,
     * the per-width issue histogram, stall attribution, per-class
     * counts.
     */
    Json exportStats() const;

    const MachineConfig &config() const { return config_; }

  private:
    /**
     * What issuing needs to know about one opcode on this machine,
     * resolved once at construction so the hot path does no class,
     * unit or latency lookups.
     */
    struct IssueRow
    {
        /** Operation latency in minor cycles. */
        std::uint32_t latency = 1;
        /** Minor cycles between two issues to one unit copy. */
        std::uint32_t unitIssueLatency = 0;
        /** The copies of the unit serving the class, as the range
         *  [unitBegin, unitEnd) of unit_free_; empty when units are
         *  fully duplicated. */
        std::uint16_t unitBegin = 0;
        std::uint16_t unitEnd = 0;
        InstrClass cls = InstrClass::IntAdd;
        /** Stores update the memory ready table. */
        bool store = false;
        /** A branch or jump on a machine that does not issue across
         *  branches: later instructions wait for the next cycle. */
        bool fence = false;
    };

    std::uint64_t regReady(Reg r) const;

    /** The shared body of emit() and issue(), given the latest
     *  ready time of the register sources. */
    void issueAfter(std::uint64_t t_regs, Opcode op, Reg dst,
                    std::int64_t addr, Pc pc);

    // Out-of-line slow paths of issueAfter(): table growth, and the
    // issue timeline and per-pc profiling (both off in sweeps).
    void growRegReady(Reg r);
    void growStoreReady(std::size_t word);
    /** Record the issue just made (at cur_cycle_, in slot
     *  cur_count_ - 1) in the timeline and the per-pc profile. */
    void observe(Opcode op, Pc pc, StallCause cause, std::uint64_t lost);

    MachineConfig config_;
    /** config_.issueWidth, widened once. */
    std::uint64_t width_ = 1;
    std::array<IssueRow, kNumOpcodes> rows_{};

    /** Minor cycle currently being filled. */
    std::uint64_t cur_cycle_ = 0;
    /** Instructions already issued in cur_cycle_. */
    std::uint64_t cur_count_ = 0;
    /** Completion time of the latest-finishing instruction. */
    std::uint64_t last_complete_ = 0;
    /** Earliest cycle the next instruction may use (branch fences). */
    std::uint64_t fence_ = 0;

    std::vector<std::uint64_t> reg_ready_;
    /** Ready time per memory *word* (index addr / kWordBytes), grown
     *  on demand.  Addresses are word-aligned and bounded by the
     *  simulated memory, so a flat table beats a hash map on the
     *  per-instruction hot path; absent entries mean "ready at 0",
     *  exactly like the map this replaces. */
    std::vector<std::uint64_t> store_ready_;
    /** Next-free minor cycle of every functional-unit copy, unit by
     *  unit in config_.units order. */
    std::vector<std::uint64_t> unit_free_;

    /** counts_[k] = closed cycles that issued exactly k instrs, for
     *  k >= 1; counts_[0] goes unread, because issueCounts() derives
     *  the cycles that issued nothing from cur_cycle_. */
    std::vector<std::uint64_t> counts_;

    /** Lost-slot attribution (FrontendDrain added at snapshot time). */
    StallBreakdown stalls_;
    /** Dynamic instructions per class. */
    ClassCounts class_issued_{};

    /** profile_enabled_ || timeline_enabled_: observe() each issue. */
    bool observing_ = false;
    /** Per-pc counters (empty unless enableProfile()). */
    bool profile_enabled_ = false;
    std::vector<PcCounters> profile_;
    /** pc of the most recently issued instruction (drain charge). */
    std::size_t last_profile_slot_ = 0;

    /** Issue timeline capture (off unless recordTimeline()). */
    bool timeline_enabled_ = false;
    std::size_t timeline_limit_ = 0;
    std::uint64_t timeline_dropped_ = 0;
    std::vector<IssueEvent> timeline_;
};

SS_ALWAYS_INLINE std::uint64_t
IssueEngine::regReady(Reg r) const
{
    // kNoReg (an absent source) is out of range and reads as ready.
    return r < reg_ready_.size() ? reg_ready_[r] : 0;
}

SS_ALWAYS_INLINE void
IssueEngine::emit(const DynInstr &di)
{
    std::uint64_t t_regs = 0;
    for (std::uint8_t i = 0; i < di.numSrcs; ++i)
        t_regs = std::max(t_regs, regReady(di.srcs[i]));
    issueAfter(t_regs, di.op, di.dst, di.addr, di.pc);
}

SS_ALWAYS_INLINE void
IssueEngine::issue(Opcode op, Reg dst, Reg a, Reg b, std::int64_t addr,
                   Pc pc)
{
    issueAfter(std::max(regReady(a), regReady(b)), op, dst, addr, pc);
}

SS_ALWAYS_INLINE void
IssueEngine::issueAfter(std::uint64_t t_regs, Opcode op, Reg dst,
                        std::int64_t addr, Pc pc)
{
    const IssueRow &row = rows_[static_cast<std::size_t>(op)];
    const std::size_t word = static_cast<std::size_t>(addr / kWordBytes);
    const bool stores = row.store && addr >= 0;

    // Make room in the ready tables first, so the rest of the path
    // makes no calls (kNoReg + 1 wraps to 0 and never grows).
    if (static_cast<Reg>(dst + 1) > reg_ready_.size()) [[unlikely]]
        growRegReady(dst);
    if (stores && word >= store_ready_.size()) [[unlikely]]
        growStoreReady(word);

    // Component earliest-issue times, kept separate so a stall can be
    // charged to the binding constraint.  Data: register RAW, then
    // memory RAW / WAW through the actual word address.
    std::uint64_t t_data = t_regs;
    if (addr >= 0 && word < store_ready_.size())
        t_data = std::max(t_data, store_ready_[word]);

    // Functional-unit availability (class conflicts): the
    // earliest-free copy of the unit serving the class.
    std::uint64_t *copy = nullptr;
    std::uint64_t t_unit = 0;
    if (row.unitBegin != row.unitEnd) {
        std::uint64_t *const first = unit_free_.data() + row.unitBegin;
        std::uint64_t *const last = unit_free_.data() + row.unitEnd;
        copy = first;
        for (std::uint64_t *c = first + 1; c != last; ++c) {
            if (*c < *copy)
                copy = c;
        }
        t_unit = *copy;
    }

    // Earliest issue: in order, after the branch fence, operands
    // ready, and a unit copy free.
    std::uint64_t t = std::max(
        std::max(cur_cycle_, fence_), std::max(t_data, t_unit));

    // Issue-slot availability: if we moved past the cycle being
    // filled, the new cycle starts empty; otherwise check the width.
    StallCause cause = StallCause::BranchFence;
    std::uint64_t lost = 0;
    if (t > cur_cycle_) {
        // The cycle being filled closes short, plus (t-cur-1) fully
        // empty cycles: charge every lost slot to the binding
        // constraint (latency beats unit beats fence on ties — the
        // paper's headline cause wins ambiguous slots).
        if (t_data >= t)
            cause = StallCause::RawLatency;
        else if (t_unit >= t)
            cause = StallCause::UnitConflict;
        lost = (t - cur_cycle_) * width_ - cur_count_;
        stalls_[cause] += lost;
        ++counts_[cur_count_];
        cur_cycle_ = t;
        cur_count_ = 0;
    } else if (cur_count_ == width_) {
        // A full cycle: issue first thing in the next one.  No slot
        // is lost, because every constraint (the unit copy's free
        // cycle included) already cleared by t == cur_cycle_.
        ++counts_[cur_count_];
        t = ++cur_cycle_;
        cur_count_ = 0;
    }

    // --- Issue at minor cycle t. ---
    ++cur_count_;
    ++class_issued_[static_cast<std::size_t>(row.cls)];

    const std::uint64_t done = t + row.latency;
    last_complete_ = std::max(last_complete_, done);
    if (dst != kNoReg)
        reg_ready_[dst] = done;
    if (stores)
        store_ready_[word] = done;
    if (copy != nullptr)
        *copy = t + row.unitIssueLatency;
    if (row.fence)
        fence_ = t + 1;
    if (observing_) [[unlikely]]
        observe(op, pc, cause, lost);
}

/**
 * Convenience: replay a buffered trace on a machine and return the
 * elapsed base cycles.
 */
double simulateTrace(const TraceBuffer &trace,
                     const MachineConfig &config);

} // namespace ilp

#endif // SUPERSYM_SIM_ISSUE_HH
