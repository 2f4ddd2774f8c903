/**
 * @file
 * ilp::prof — the cycle-accurate profiler's artifact layer.
 *
 * The issue engine counts, per static instruction (pc), how many
 * slots it used and how many it lost per StallCause; this file maps
 * those counters back onto the program: per-pc, per-block, per-line,
 * per-function and per-natural-loop rollups, an annotated listing
 * that interleaves the scheduled machine code with the MT source it
 * came from, a machine-readable JSON form, and a diff of two
 * profiles of the same workload on different machines.
 *
 * Everything here is deterministic: a Profile is byte-identical at
 * any worker count, because every run times its dynamic stream live
 * through the same in-order engine (tests/profile_test.cc holds this
 * as an invariant alongside exact reconciliation with the aggregate
 * StallBreakdown).
 */

#ifndef SUPERSYM_CORE_STUDY_PROFILE_HH
#define SUPERSYM_CORE_STUDY_PROFILE_HH

#include <string>
#include <vector>

#include "core/study/driver.hh"
#include "support/json.hh"

namespace ilp {
namespace prof {

/** Slot counters summed over any grouping of pcs. */
struct Counters
{
    std::uint64_t issued = 0;
    std::array<std::uint64_t, kNumStallCauses> stallSlots{};

    void add(const PcCounters &c);
    void add(const Counters &c);
    std::uint64_t stallTotal() const;
    /** Slots this group accounted for: used + charged lost. */
    std::uint64_t slotTotal() const { return issued + stallTotal(); }
    /** The cause charged the most slots; RawLatency on an all-zero
     *  record (callers only print it when stallTotal() > 0). */
    StallCause dominantCause() const;
};

/** One static instruction of the final machine code. */
struct CodeEntry
{
    std::string func;
    int block = 0;
    SrcLoc loc;
    /** Printer form of the scheduled instruction. */
    std::string text;
};

/** A natural loop mapped onto pc space. */
struct CodeLoop
{
    std::string func;
    int headerBlock = 0;
    int depth = 1;
    /** Smallest known source line inside the loop (0 if none). */
    int headerLine = 0;
    /** Half-open pc ranges, one per member block. */
    std::vector<std::pair<Pc, Pc>> ranges;
};

/**
 * Immutable pc -> code structure map, captured from a module after
 * Module::assignPcs().  Build it once per compile; profiles for any
 * number of machines share it.
 */
struct CodeMap
{
    std::string sourceName;
    /** entries[pc] describes static instruction pc. */
    std::vector<CodeEntry> entries;
    std::vector<CodeLoop> loops;

    static CodeMap build(const Module &module);
};

/** A named rollup row (function, block or loop granularity). */
struct Row
{
    std::string key;
    Counters counters;
};

/** The profiler's artifact: one workload on one machine. */
struct Profile
{
    std::string workload;
    std::string machineName;
    std::uint64_t machineHash = 0;
    int issueWidth = 1;
    int pipelineDegree = 1;

    std::uint64_t instructions = 0;
    double cycles = 0.0;
    double ipc = 0.0;
    std::uint64_t issueSlotsTotal = 0;
    StallBreakdown stalls;

    CodeMap code;
    /** Per-pc records; the last one is the unattributed bucket. */
    std::vector<PcCounters> perPc;
    /** Sum over perPc (including unattributed). */
    Counters total;

    const PcCounters &unattributed() const { return perPc.back(); }
};

/**
 * Assemble a Profile from a run's counters.  The outcome must have
 * been produced with RunTelemetryOptions::collectProfile and the
 * module the CodeMap was built from; panics when the record count
 * does not match the code map.
 */
Profile buildProfile(const std::string &workload,
                     const MachineConfig &machine, CodeMap code,
                     const RunOutcome &outcome);

/**
 * Exact reconciliation of the per-pc records against the aggregate
 * engine counters:
 *   sum(issued)         == instructions
 *   sum(stallSlots[c])  == stalls[c] for every cause
 *   sum(slotTotal)      == issueSlotsTotal
 * @return "" when the profile reconciles; otherwise a description of
 *         the first violated equation.
 */
std::string checkReconciliation(const Profile &profile);

// ------------------------------------------------------------ rollups

/** Per source line (known locs only), sorted by line. */
std::vector<std::pair<int, Counters>> rollupByLine(const Profile &p);

/** Per function, in layout order. */
std::vector<Row> rollupByFunction(const Profile &p);

/** Per basic block ("func/bbN"), in layout order. */
std::vector<Row> rollupByBlock(const Profile &p);

/** Per natural loop ("func:lineL depth d"), hottest first. */
std::vector<Row> rollupLoops(const Profile &p);

// ---------------------------------------------------------- renderers

/**
 * Human-readable annotated listing: headline numbers, the stall
 * breakdown, the `topN` hottest loops, then the scheduled code of
 * each function interleaved with the MT source lines it came from
 * (`source` is the workload's MT text), with issued/stall-slot and
 * percent-of-total columns per instruction.
 */
std::string renderAnnotatedListing(const Profile &p,
                                   const std::string &source,
                                   std::size_t topN);

/** Machine-readable form (schema: profile-v1), carrying build and
 *  machine provenance under "meta". */
Json toJson(const Profile &p);

/**
 * Compare two profiles of the same workload on different machines:
 * headline deltas plus a per-line table of slot counts under A and B.
 * Panics when the workloads differ (lines would not correspond).
 */
std::string renderDiff(const Profile &a, const Profile &b,
                       std::size_t topN);

} // namespace prof
} // namespace ilp

#endif // SUPERSYM_CORE_STUDY_PROFILE_HH
