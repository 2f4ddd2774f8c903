/**
 * The dependence graph and the what-if report built on it, checked
 * against the issue engine.
 *
 * The load-bearing claims:
 *
 *  - `ssim whatif` reports the engine's own run (instructions and
 *    cycles equal Study::timedRun's), and the oracle critical path,
 *    the issue-bandwidth bound and the unit-conflict bound each sit
 *    at or under its cycles;
 *  - slack is non-negative everywhere, critical instructions have
 *    zero slack, and the reported critical edges actually carry the
 *    critical path;
 *  - the graph build is deterministic: the same structure hash at any
 *    job count and from the interpreter's stream.
 */

#include <gtest/gtest.h>

#include "core/machine/models.hh"
#include "core/study/experiment.hh"
#include "core/study/whatif.hh"
#include "sim/depgraph.hh"
#include "sim/interp.hh"
#include "tests/helpers.hh"
#include "workloads/workloads.hh"

namespace ilp {
namespace {

TEST(WhatIfTest, ReportsTheEngineRunUnderItsBounds)
{
    // `ssim whatif` times the module it traced on the issue engine,
    // so its numbers are Study::timedRun's on every machine, and each
    // lower bound it prints sits at or under them.
    Study study(2);
    for (const char *name : {"yacc", "linpack", "whet"}) {
        const Workload &w = workloadByName(name);
        const CompileOptions options = defaultCompileOptions(w);
        for (const MachineConfig &machine :
             {idealSuperscalar(4), cray1(),
              superscalarWithClassConflicts(4)}) {
            const whatif::Report r =
                whatif::analyze(study, w, machine, options, 4);
            const RunOutcome out = study.timedRun(w, machine, options);
            ASSERT_FALSE(out.trapped()) << w.name;
            const std::string where = w.name + " on " + machine.name;

            EXPECT_EQ(r.run.instructions, out.instructions) << where;
            EXPECT_EQ(r.run.cycles, out.cycles) << where;
            EXPECT_EQ(r.graphNodes, out.instructions) << where;

            // Compared in base cycles: minor cycles over the same
            // integer degree, so <= is exact.
            const double m = machine.pipelineDegree;
            EXPECT_LE(r.slack.criticalPathMinor / m, out.cycles)
                << where;
            EXPECT_LE(r.bounds.issueMinor / m, out.cycles) << where;
            EXPECT_LE(r.bounds.unitMinor / m, out.cycles) << where;
            EXPECT_EQ(r.bounds.unitMinor > 0, !machine.units.empty())
                << where;
        }
    }
}

TEST(DepGraphPropertyTest, SlackIsNonNegativeAndZeroOnCriticalPath)
{
    Study study(2);
    const Workload &w = workloadByName("whet");
    const CompileOptions options = defaultCompileOptions(w);
    for (const MachineConfig &machine :
         {cray1(), idealSuperscalar(4)}) {
        const DepGraph graph = study.dependenceGraph(w, machine, options);
        const SlackReport report = graph.slack(machine, 8);
        EXPECT_GT(report.criticalPathMinor, 0u);

        std::uint64_t critLatency = 0;
        std::uint64_t critCount = 0;
        for (const PcSlack &row : report.perPc) {
            if (row.dynCount == 0)
                continue;
            EXPECT_LE(row.critCount, row.dynCount);
            if (row.critCount > 0) {
                // A critical instance is exactly a zero-slack one.
                EXPECT_EQ(row.minSlackMinor, 0u);
                critLatency += row.critLatencyMinor;
                critCount += row.critCount;
            }
        }
        // Some instruction carries the critical path, and critical
        // latencies cover it (>= because several critical chains may
        // coexist).
        EXPECT_GT(critCount, 0u);
        EXPECT_GE(critLatency, report.criticalPathMinor);

        ASSERT_FALSE(report.topEdges.empty());
        for (const CriticalEdge &e : report.topEdges) {
            EXPECT_GT(e.count, 0u);
            EXPECT_GT(e.latencyMinor, 0u);
        }
        // Hottest-first ordering.
        for (std::size_t i = 1; i < report.topEdges.size(); ++i) {
            EXPECT_GE(report.topEdges[i - 1].latencyMinor,
                      report.topEdges[i].latencyMinor);
        }
    }
}

TEST(DepGraphPropertyTest, BuildIsDeterministicAcrossJobsAndBackends)
{
    const Workload &w = workloadByName("yacc");
    const CompileOptions options = defaultCompileOptions(w);
    const MachineConfig machine = idealSuperscalar(4);

    std::uint64_t reference = 0;
    std::size_t nodes = 0;
    {
        Study study(1);
        const DepGraph graph =
            study.dependenceGraph(w, machine, options);
        reference = graph.structureHash();
        nodes = graph.size();
    }
    // Same hash at other job counts.
    for (int jobs : {2, 8}) {
        Study study(jobs);
        const DepGraph graph =
            study.dependenceGraph(w, machine, options);
        EXPECT_EQ(graph.structureHash(), reference)
            << "jobs " << jobs;
        EXPECT_EQ(graph.size(), nodes);
    }
    // Same hash when the interpreter produces the stream.
    {
        const Module module =
            compileWorkload(w.source, machine, options);
        DepGraph::Builder builder;
        Interpreter interp(module);
        ASSERT_FALSE(interp.run("main", &builder).trapped());
        const DepGraph graph = builder.take();
        EXPECT_EQ(graph.structureHash(), reference);
        EXPECT_EQ(graph.size(), nodes);
    }
}

using DepGraphTrapTest = test::ThrowingErrors;

TEST_F(DepGraphTrapTest, TrappedWorkloadThrowsInsteadOfBounding)
{
    // A graph of a partial run bounds nothing: surface the trap like
    // profiledRun does.
    Workload w{"trapper", "always divides by zero",
               R"(var int zero;
                  func main() : int { return 1 / zero; })",
               0, false, 1};
    Study study(1);
    EXPECT_THROW(study.dependenceGraph(w, idealSuperscalar(4),
                                       defaultCompileOptions(w)),
                 TrapException);
}

} // namespace
} // namespace ilp
