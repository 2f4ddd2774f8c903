/**
 * @file
 * RefIssueStepper: a deliberately naive model of the in-order issue
 * rule of sim/issue.hh, kept as the oracle that IssueEngine is
 * differentially tested against (tests/issue_ref_test.cc,
 * tools/fuzz/fuzz_mt_exec.cc).  Nothing in a sweep runs it.
 *
 * IssueEngine jumps straight to each instruction's issue cycle and
 * charges the whole gap to one cause in one step.  The stepper walks
 * the minor cycles one at a time instead.  In each cycle it looks at
 * the head of the queue of waiting instructions and either
 *
 *  - issues it, if a slot is free and every constraint has cleared:
 *    its operands' producers have completed, a copy of its unit is
 *    free, and no branch fence holds the cycle; or
 *  - closes the cycle, charging each slot it leaves empty to the
 *    head's constraint that clears last (ties go to latency, then
 *    unit, then fence).  A full cycle loses nothing.
 *
 * Every issued instruction records an issue and a complete event
 * (complete = issue + operation latency), the per-instruction event
 * shape of a dependence-graph simulator; an operand is ready once
 * its producer's complete event has passed.  The slots of the last cycle
 * after the last issue are frontend drain, charged to the pc of the
 * last issued instruction.
 */

#ifndef SUPERSYM_SIM_ISSUE_REF_HH
#define SUPERSYM_SIM_ISSUE_REF_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/machine/machine.hh"
#include "sim/issue.hh"
#include "sim/trace.hh"

namespace ilp {

class RefIssueStepper final : public TraceSink
{
  public:
    /** One issued instruction's events, in minor cycles. */
    struct Events
    {
        std::uint64_t issue = 0;
        std::uint64_t complete = 0;
    };

    explicit RefIssueStepper(const MachineConfig &config);

    /** Queue the instruction, then step until the queue drains. */
    void emit(const DynInstr &di) override;

    // The same quantities as IssueEngine's accessors of one name.
    std::uint64_t instructions() const { return instructions_; }
    std::uint64_t minorCycles() const { return last_complete_; }
    std::uint64_t issuePeriodMinorCycles() const;
    std::uint64_t completionTailMinorCycles() const;
    StallBreakdown stallBreakdown() const;
    std::vector<std::uint64_t> issueCounts() const;
    const ClassCounts &classIssued() const { return class_issued_; }
    /** IssueEngine::profileCounters() layout for a program of
     *  `pcCount` static instructions (last record: pcs past it). */
    std::vector<PcCounters> profileCounters(std::size_t pcCount) const;

    /** The events of the instruction most recently issued: emit()
     *  returns only once the instruction it queued has issued. */
    const Events &lastEvents() const { return last_events_; }

  private:
    /** A queued instruction and the cycles its constraints clear in.
     *  Only issues move those cycles, and everything before the head
     *  has issued, so the head's are fixed while it waits. */
    struct Waiting
    {
        DynInstr di;
        InstrClass cls = InstrClass::IntAdd;
        /** Index of the unit serving cls, -1 if none. */
        int unitIndex = -1;
        std::uint64_t data = 0;
        std::uint64_t unit = 0;
        std::uint64_t fence = 0;
    };

    void clearTimes(Waiting &w) const;
    void issueHead();
    /** Charge the free slots of the current cycle to the constraint
     *  of `w` that clears last. */
    void loseCycle(const Waiting &w);
    void closeCycle();
    PcCounters &counters(Pc pc);

    MachineConfig config_;
    std::deque<Waiting> waiting_;

    std::uint64_t cycle_ = 0;
    /** Instructions issued in cycle_. */
    std::uint64_t issued_ = 0;
    /** No instruction issues before this cycle (branch fences). */
    std::uint64_t fence_until_ = 0;
    std::uint64_t last_complete_ = 0;

    std::uint64_t instructions_ = 0;
    Events last_events_;
    /** The complete event of each register's last writer (0: never
     *  written, so ready from the start). */
    std::vector<std::uint64_t> reg_complete_;
    /** The complete event of each memory word's last store. */
    std::unordered_map<std::int64_t, std::uint64_t> store_complete_;
    /** Per unit, the cycle each copy is next free. */
    std::vector<std::vector<std::uint64_t>> unit_free_;

    /** histogram_[k] = closed cycles that issued k instructions. */
    std::vector<std::uint64_t> histogram_;
    StallBreakdown stalls_;
    ClassCounts class_issued_{};
    /** Counters per pc; kNoPc's are kept apart. */
    std::vector<PcCounters> per_pc_;
    PcCounters no_pc_;
    Pc last_pc_ = kNoPc;
};

} // namespace ilp

#endif // SUPERSYM_SIM_ISSUE_REF_HH
