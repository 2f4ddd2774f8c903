/**
 * Figure 4-7: classical optimization can either add or subtract
 * parallelism.  The paper's three expression graphs: an unoptimized
 * computation with two comparable branches (parallelism 1.67);
 * optimizing the off-critical branch (1.33 — parallelism falls);
 * optimizing the bottleneck (1.50 — parallelism rises relative to
 * that).  Reproduced with the ExprDag metric plus a live end-to-end
 * demonstration on MT code.
 */

#include "bench/common.hh"
#include "core/metrics/metrics.hh"
#include "core/study/driver.hh"
#include "sim/issue.hh"

using namespace ilp;

int
main()
{
    bench::banner("Figure 4-7",
                  "parallelism vs compiler optimizations");

    // --- The paper's abstract DAGs. ----------------------------------
    ExprDag full;
    {
        int a = full.addNode();
        int b = full.addNode();
        int c = full.addNode();
        int d = full.addNode({a, b});
        full.addNode({d, c});
    }
    ExprDag off_critical;
    {
        int a = off_critical.addNode();
        int b = off_critical.addNode();
        int d = off_critical.addNode({a, b});
        off_critical.addNode({d});
    }
    ExprDag bottleneck;
    {
        int a = bottleneck.addNode();
        int b = bottleneck.addNode();
        bottleneck.addNode({a, b});
    }

    Table t;
    t.setHeader({"expression graph", "ops", "critical path",
                 "parallelism"});
    t.row()
        .cell("original (two branches)")
        .cell(static_cast<long long>(full.size()))
        .cell(static_cast<long long>(full.criticalPath()))
        .cell(full.parallelism(), 2);
    t.row()
        .cell("off-critical branch optimized")
        .cell(static_cast<long long>(off_critical.size()))
        .cell(static_cast<long long>(off_critical.criticalPath()))
        .cell(off_critical.parallelism(), 2);
    t.row()
        .cell("bottleneck optimized")
        .cell(static_cast<long long>(bottleneck.size()))
        .cell(static_cast<long long>(bottleneck.criticalPath()))
        .cell(bottleneck.parallelism(), 2);
    t.print();
    std::printf("paper: 1.67 / 1.33 / 1.50\n\n");

    // --- Live demonstration: CSE removing parallel work. -------------
    // Redundant computation on the non-critical side: removing it
    // (OptLevel::Local's CSE) lowers measured parallelism while
    // improving time — the Livermore anomaly in miniature.
    const char *src = R"(
        var int a[256];
        func main() : int {
            var int i;
            var int s = 0;
            for (i = 0; i < 256; i = i + 1) {
                a[i] = a[i] + 1;        // A[i] address computed twice
                s = s + a[i];
            }
            return s;
        })";
    const Workload w{"fig47live", "", src, 0, false, 1};
    Study study;
    CompileOptions o1 = defaultCompileOptions(w);
    o1.level = OptLevel::Sched;
    CompileOptions o2 = defaultCompileOptions(w);
    o2.level = OptLevel::Local;

    Table live("Live CSE demonstration (A[i] = A[i] + 1 loop):");
    live.setHeader({"configuration", "instructions", "base cycles",
                    "parallelism"});
    // Through the study: the availableParallelism calls below reuse
    // these two configurations' compile prefixes.
    RunOutcome r1 = study.timedRun(w, idealSuperscalar(8), o1);
    RunOutcome r2 = study.timedRun(w, idealSuperscalar(8), o2);
    live.row()
        .cell("scheduled, no CSE")
        .cell(static_cast<long long>(r1.instructions))
        .cell(r1.cycles, 0)
        .cell(study.availableParallelism(w, o1, 8), 2);
    live.row()
        .cell("scheduled + local CSE")
        .cell(static_cast<long long>(r2.instructions))
        .cell(r2.cycles, 0)
        .cell(study.availableParallelism(w, o2, 8), 2);
    live.print();
    std::printf(
        "\npaper: \"without common subexpression elimination the "
        "address of A[I]\nwould be computed twice ... these redundant "
        "calculations are not\nbottlenecks, so removing them "
        "decreases the parallelism\" (§4.4): the\ninstruction count "
        "drops but the critical path — hence cycles — does not,\nso "
        "the parallelism metric falls while nothing got slower.\n");
    return 0;
}
