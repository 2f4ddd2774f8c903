/**
 * @file
 * The machine taxonomy of Section 2, as a parameterizable description.
 *
 * A machine is characterized by (cf. §2.1, §2.3, §2.4, §2.5):
 *
 *  - `issueWidth` (n): instructions issuable per cycle.  Base and
 *    superpipelined machines have n = 1; a superscalar machine of
 *    degree n has n > 1.
 *  - `pipelineDegree` (m): minor cycles per base cycle.  The cycle
 *    time is 1/m of the base machine's, and a simple operation whose
 *    base latency is L takes L*m minor cycles.  Base and superscalar
 *    machines have m = 1.
 *  - per-class operation latencies in base cycles (§2 definitions);
 *  - optional functional units with issue latency and multiplicity
 *    (§2.3.2 class conflicts; §3 "we can also group the operations
 *    into functional units, and specify an issue latency and
 *    multiplicity for each").  An empty unit list means fully
 *    duplicated units — no class conflicts, the "ideal" machine.
 *
 * The timing simulator (sim/issue.hh) runs entirely in minor cycles
 * and reports time in base cycles, so superscalar and superpipelined
 * machines are directly comparable — the "supersymmetry" of §2.7.
 */

#ifndef SUPERSYM_CORE_MACHINE_MACHINE_HH
#define SUPERSYM_CORE_MACHINE_MACHINE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/isa.hh"

namespace ilp {

/** Per-class operation latencies, in base cycles. */
using LatencyTable = std::array<int, kNumInstrClasses>;

/** A latency table with every class at one cycle (§4: "when available
 *  instruction-level parallelism is discussed, it is assumed that all
 *  operations execute in one cycle"). */
LatencyTable unitLatencies();

/**
 * A functional unit group: which classes it serves, how many copies
 * exist, and how many minor cycles must separate issues to one copy.
 */
struct FuncUnit
{
    std::string name;
    std::vector<InstrClass> classes;
    /** Number of identical copies of this unit. */
    int multiplicity = 1;
    /** Minor cycles between two issues to the same copy. */
    int issueLatency = 1;

    bool handles(InstrClass cls) const;
};

struct MachineConfig
{
    std::string name = "base";

    /** n — instructions issuable per (minor) cycle. */
    int issueWidth = 1;
    /** m — minor cycles per base cycle. */
    int pipelineDegree = 1;

    /** Operation latencies in base cycles, indexed by InstrClass. */
    LatencyTable latency = unitLatencies();

    /**
     * Functional units.  Empty means every class has unlimited fully
     * pipelined units (no class conflicts).  When non-empty, every
     * class must be covered or validate() fails.
     */
    std::vector<FuncUnit> units;

    /**
     * May instructions after a (predicted) branch issue in the same
     * minor cycle as the branch?  The paper's base machine charges no
     * control latency ("assuming perfect branch slot filling and/or
     * branch prediction", §2.1); set false to model single-block issue.
     */
    bool issueAcrossBranches = true;

    /** Operation latency of `cls` in minor cycles. */
    int latencyMinor(InstrClass cls) const
    {
        return latency[static_cast<std::size_t>(cls)] * pipelineDegree;
    }

    int latencyBase(InstrClass cls) const
    {
        return latency[static_cast<std::size_t>(cls)];
    }

    /** Index of the unit serving `cls`; -1 if units are unlimited. */
    int unitFor(InstrClass cls) const;

    /**
     * FNV-1a digest over every timing-relevant field (name excluded:
     * two identically parameterized machines hash equal regardless of
     * labeling).  Stamped into emitted JSON (`meta.machine_hash`) so
     * archived artifacts can be matched to the exact machine spec.
     */
    std::uint64_t specHash() const;

    /** fatal() on an inconsistent description (user error). */
    void validate() const;
};

} // namespace ilp

#endif // SUPERSYM_CORE_MACHINE_MACHINE_HH
