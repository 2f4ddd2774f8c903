/**
 * Table 5-1 and §5.1: the cost of cache misses, and how miss burden
 * dilutes the benefit of parallel issue.  First the paper's analytic
 * rows (reproduced exactly), then the §5.1 dilution arithmetic, then
 * a measured experiment: our benchmarks' data-reference streams run
 * through the cache model, converting miss ratios into cpi burden and
 * showing the shrunken speedup of a 3-issue machine.
 */

#include "bench/common.hh"
#include "core/study/driver.hh"
#include "sim/cache.hh"

using namespace ilp;

int
main()
{
    bench::banner("Table 5-1", "the cost of cache misses");

    Table t;
    t.setHeader({"machine", "cycles/instr", "cycle (ns)", "mem (ns)",
                 "miss cost (cycles)", "miss cost (instr)"});
    for (const auto &row : paperMissCostRows()) {
        t.row()
            .cell(row.machine)
            .cell(row.cyclesPerInstr, 1)
            .cell(row.cycleTimeNs, 0)
            .cell(row.memTimeNs, 0)
            .cell(row.missCostCycles(), 0)
            .cell(row.missCostInstr(), 1);
    }
    t.print();
    std::printf("paper: 6 / 0.6, 12 / 8.6, 70 / 140.0\n\n");

    // --- §5.1 dilution arithmetic. -----------------------------------
    Table dil("Section 5.1 dilution (2.0 cpi machine gaining 3-wide "
              "issue):");
    dil.setHeader({"miss burden (cpi)", "speedup from 1.0 -> 0.5 "
                                        "issue cpi"});
    for (double burden : {0.0, 0.5, 1.0, 2.0}) {
        dil.row()
            .cell(burden, 1)
            .cell(speedupWithMissBurden(1.0, 0.5, burden), 2);
    }
    dil.print();
    std::printf("paper: 100%% improvement without misses becomes 33%% "
                "with 1.0 cpi of misses\n\n");

    // --- Measured: the suite through the cache model. ----------------
    // A WRL-Titan-like data cache (64KB direct-mapped, 32B lines,
    // 12-cycle misses) fed by each benchmark's data references.
    Table meas("Measured on this suite (64KB direct-mapped data "
               "cache, 12-cycle miss):");
    meas.setHeader({"benchmark", "data refs/instr", "miss ratio",
                    "miss cpi", "ideal 3-issue speedup",
                    "with miss burden"});
    struct MeasuredRow
    {
        double refsPerInstr = 0.0;
        double missRatio = 0.0;
        double missCpi = 0.0;
        double issueCpiWide = 0.0;
        double diluted = 0.0;
    };
    const auto &suite = allWorkloads();
    // Each benchmark's compile + stats run is an independent cell;
    // rows are emitted in suite order afterwards.  The stats run's
    // data cache is CacheConfig{}: 64KB, direct-mapped, 32B lines.
    std::vector<MeasuredRow> rows = bench::sweeper().map<MeasuredRow>(
        suite.size(), [&](std::size_t i) {
            const Workload &w = suite[i];
            CompileOptions o = defaultCompileOptions(w);
            Module m =
                compileWorkload(w.source, idealSuperscalar(3), o);
            RunTelemetryOptions stats;
            stats.collectStats = true;
            const RunOutcome out =
                runOnMachine(m, idealSuperscalar(3), stats);
            auto cache = [&](const char *key) {
                return out.stats.at(std::string("cache.") + key)
                    ->asNumber();
            };

            const double instructions =
                static_cast<double>(out.instructions);
            MeasuredRow row;
            row.refsPerInstr = cache("accesses") / instructions;
            row.missRatio = cache("miss_ratio");
            row.missCpi = cache("misses_per_instr") * 12.0;
            row.issueCpiWide = out.cycles / instructions;
            row.diluted = speedupWithMissBurden(1.0, row.issueCpiWide,
                                                row.missCpi);
            return row;
        });
    for (std::size_t i = 0; i < suite.size(); ++i) {
        meas.row()
            .cell(suite[i].name)
            .cell(rows[i].refsPerInstr, 2)
            .cell(rows[i].missRatio, 4)
            .cell(rows[i].missCpi, 3)
            .cell(1.0 / rows[i].issueCpiWide, 2)
            .cell(rows[i].diluted, 2);
    }
    meas.print();
    std::printf(
        "\nReading: \"cache miss effects decrease the benefit of "
        "parallel instruction\nissue\" (§5.1) — the last column is "
        "always below the ideal speedup, and the\ngap grows with the "
        "miss ratio.\n");
    return 0;
}
