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
 */

#ifndef SUPERSYM_SIM_ISSUE_HH
#define SUPERSYM_SIM_ISSUE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "core/machine/machine.hh"
#include "sim/trace.hh"
#include "support/statistics.hh"
#include "support/stats.hh"

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

    /** Defined inline below: the per-record hot path.  Callers that
     *  hold a concrete IssueEngine (the fused executor paths)
     *  inline the whole thing; virtual dispatch remains for
     *  TraceSink* callers. */
    void emit(const DynInstr &di) override;

    /** Dynamic instructions issued so far. */
    std::uint64_t instructions() const { return instructions_; }

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
     * Export everything above into a stats group ("issue"): totals,
     * stall attribution, per-width issue histogram, per-class counts.
     */
    void exportStats(stats::Group &g) const;

    const MachineConfig &config() const { return config_; }

  private:
    std::uint64_t regReady(Reg r) const;
    void setRegReady(Reg r, std::uint64_t t);

    MachineConfig config_;

    std::uint64_t instructions_ = 0;
    /** Minor cycle currently being filled. */
    std::uint64_t cur_cycle_ = 0;
    /** Instructions already issued in cur_cycle_. */
    int cur_count_ = 0;
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
    /** Next-free minor cycle per functional-unit copy, per unit. */
    std::vector<std::vector<std::uint64_t>> unit_free_;
    /** unitFor(cls), precomputed per class at construction. */
    std::array<int, kNumInstrClasses> unit_for_{};

    /** counts_[k] = closed cycles that issued exactly k instrs. */
    std::vector<std::uint64_t> counts_;
    /** Fully-empty cycles skipped during stalls. */
    std::uint64_t empty_cycles_ = 0;

    /** Lost-slot attribution (FrontendDrain added at snapshot time). */
    StallBreakdown stalls_;
    /** Dynamic instructions per class. */
    ClassCounts class_issued_{};

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

inline std::uint64_t
IssueEngine::regReady(Reg r) const
{
    return r < reg_ready_.size() ? reg_ready_[r] : 0;
}

inline void
IssueEngine::setRegReady(Reg r, std::uint64_t t)
{
    if (r >= reg_ready_.size())
        reg_ready_.resize(static_cast<std::size_t>(r) + 1, 0);
    reg_ready_[r] = t;
}

inline void
IssueEngine::emit(const DynInstr &di)
{
    const InstrClass cls = di.cls();
    const std::uint64_t width =
        static_cast<std::uint64_t>(config_.issueWidth);

    // Component earliest-issue times, kept separate so a stall can be
    // charged to the binding constraint.
    std::uint64_t t_data = 0;

    // Register RAW.
    for (std::uint8_t i = 0; i < di.numSrcs; ++i)
        t_data = std::max(t_data, regReady(di.srcs[i]));

    // Memory RAW / WAW through the actual word address.
    if (di.addr >= 0) {
        const std::size_t word =
            static_cast<std::size_t>(di.addr / kWordBytes);
        if (word < store_ready_.size())
            t_data = std::max(t_data, store_ready_[word]);
    }

    // Functional-unit availability (class conflicts).
    int unit = unit_for_[static_cast<std::size_t>(cls)];
    std::size_t copy = 0;
    std::uint64_t t_unit = 0;
    if (unit >= 0) {
        auto &copies = unit_free_[static_cast<std::size_t>(unit)];
        copy = 0;
        for (std::size_t i = 1; i < copies.size(); ++i) {
            if (copies[i] < copies[copy])
                copy = i;
        }
        t_unit = copies[copy];
    }

    // Earliest issue: in order, after the branch fence, operands
    // ready, and a unit copy free.
    std::uint64_t t = std::max(
        std::max(cur_cycle_, fence_), std::max(t_data, t_unit));

    // Profile bucket for this record (last slot = unattributed).
    std::size_t pslot = 0;
    if (profile_enabled_)
        pslot = di.pc < profile_.size() - 1
                    ? static_cast<std::size_t>(di.pc)
                    : profile_.size() - 1;

    // Issue-slot availability: if we moved past the cycle being
    // filled, the new cycle starts empty; otherwise check the width.
    if (t > cur_cycle_) {
        // The cycle being filled closes short, plus (t-cur-1) fully
        // empty cycles: charge every lost slot to the binding
        // constraint (latency beats unit beats fence on ties — the
        // paper's headline cause wins ambiguous slots).
        StallCause cause = StallCause::BranchFence;
        if (t_data >= t)
            cause = StallCause::RawLatency;
        else if (t_unit >= t)
            cause = StallCause::UnitConflict;
        const std::uint64_t lost =
            (width - static_cast<std::uint64_t>(cur_count_)) +
            (t - cur_cycle_ - 1) * width;
        stalls_[cause] += lost;
        if (profile_enabled_)
            profile_[pslot]
                .stallSlots[static_cast<std::size_t>(cause)] += lost;
        ++counts_[static_cast<std::size_t>(cur_count_)];
        empty_cycles_ += t - cur_cycle_ - 1;
        cur_cycle_ = t;
        cur_count_ = 0;
    } else if (cur_count_ >= config_.issueWidth) {
        ++counts_[static_cast<std::size_t>(cur_count_)];
        t = ++cur_cycle_;
        cur_count_ = 0;
        // Re-check unit availability at the new cycle: the chosen
        // copy is still the earliest-free one, so only max() again.
        if (unit >= 0)
            t = std::max(
                t, unit_free_[static_cast<std::size_t>(unit)][copy]);
        if (t > cur_cycle_) {
            const std::uint64_t lost = (t - cur_cycle_) * width;
            stalls_[StallCause::UnitConflict] += lost;
            if (profile_enabled_)
                profile_[pslot].stallSlots[static_cast<std::size_t>(
                    StallCause::UnitConflict)] += lost;
            empty_cycles_ += t - cur_cycle_;
            cur_cycle_ = t;
        }
    }

    // --- Issue at minor cycle t. ---
    if (timeline_enabled_) {
        if (timeline_.size() < timeline_limit_) {
            IssueEvent ev;
            ev.cycle = t;
            ev.slot = static_cast<std::uint16_t>(cur_count_);
            ev.latencyMinor = static_cast<std::uint32_t>(
                config_.latencyMinor(cls));
            ev.cls = cls;
            timeline_.push_back(ev);
        } else {
            ++timeline_dropped_;
        }
    }
    ++class_issued_[static_cast<std::size_t>(cls)];
    ++cur_count_;
    ++instructions_;
    if (profile_enabled_) {
        ++profile_[pslot].issued;
        last_profile_slot_ = pslot;
    }

    const std::uint64_t lat =
        static_cast<std::uint64_t>(config_.latencyMinor(cls));
    const std::uint64_t done = t + lat;
    last_complete_ = std::max(last_complete_, done);

    if (di.dst != kNoReg)
        setRegReady(di.dst, done);
    if (di.addr >= 0 && isStore(di.op)) {
        const std::size_t word =
            static_cast<std::size_t>(di.addr / kWordBytes);
        if (word >= store_ready_.size())
            store_ready_.resize(word + 1, 0);
        store_ready_[word] = done;
    }
    if (unit >= 0) {
        unit_free_[static_cast<std::size_t>(unit)][copy] =
            t + static_cast<std::uint64_t>(
                    config_.units[static_cast<std::size_t>(unit)]
                        .issueLatency);
    }
    if (!config_.issueAcrossBranches &&
        (cls == InstrClass::Branch || cls == InstrClass::Jump))
        fence_ = t + 1;
}

/**
 * Convenience: replay a buffered trace on a machine and return the
 * elapsed base cycles.
 */
double simulateTrace(const TraceBuffer &trace,
                     const MachineConfig &config);

} // namespace ilp

#endif // SUPERSYM_SIM_ISSUE_HH
