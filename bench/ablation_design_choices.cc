/**
 * Ablation study of the modelling choices DESIGN.md calls out — not a
 * paper artifact, but the evidence for why the defaults are what they
 * are:
 *
 *  1. scheduler memory disambiguation (AliasLevel);
 *  2. the temp register supply (§3's finite temporary file);
 *  3. issuing across (perfectly predicted) branches vs fencing;
 *  4. scheduling for the machine actually measured vs scheduling for
 *     the base machine (the §3 "according to this specification"
 *     loop).
 *
 * Every value is the harmonic-mean speedup of the whole suite on an
 * ideal 8-wide superscalar, except where noted.
 */

#include <map>

#include "bench/common.hh"

using namespace ilp;

namespace {

/**
 * Every table row, as one flat grid of distinct timed runs.  The rows
 * overlap — the default configuration appears in three tables — so a
 * run is keyed by its compilation plus the machine that times it, and
 * each distinct run executes once.  Runs compile through one
 * CompileCache, so rows that differ only in the alias level or the
 * machine share a prefix.  Table 4 deliberately times a schedule on a
 * *different* machine: the module compiled for the machine scheduled
 * *for* runs on whatever machine is measured.  No run times the base
 * machine: every schedule of one prefix executes the same
 * instructions, which is what the stall-free base machine's cycles
 * count, so a run's speedup is its instructions over its cycles.
 */
class SuiteRows
{
  public:
    /** Add a row: the suite compiled for `sched` under (alias, temps)
     *  and timed on `timing`. */
    void add(const MachineConfig &timing, const MachineConfig &sched,
             AliasLevel alias, std::uint32_t temps)
    {
        std::vector<std::size_t> row;
        for (const Workload &w : allWorkloads()) {
            CompileOptions o = defaultCompileOptions(w);
            o.alias = alias;
            o.layout.numTemp = temps;
            row.push_back(run(w, sched, timing, o));
        }
        rows_.push_back(std::move(row));
    }

    /** Time every distinct run once across the bench pool; returns
     *  each row's harmonic-mean speedup, in the order rows were
     *  added. */
    std::vector<double> evaluate() const
    {
        CompileCache cache;
        const std::vector<double> speedups = bench::sweeper().map<double>(
            runs_.size(), [&](std::size_t i) {
                const Run &r = runs_[i];
                const std::shared_ptr<const Module> module =
                    cache.compile(*r.workload, r.sched, r.options);
                const RunOutcome out = runOnMachine(*module, r.timing);
                if (out.trapped())
                    throw TrapException(out.trap);
                return out.ipc();
            });
        std::vector<double> means;
        for (const auto &row : rows_) {
            std::vector<double> suite;
            for (std::size_t run : row)
                suite.push_back(speedups[run]);
            means.push_back(harmonicMean(suite));
        }
        return means;
    }

  private:
    struct Run
    {
        const Workload *workload;
        MachineConfig sched;
        MachineConfig timing;
        CompileOptions options;
    };

    std::size_t run(const Workload &w, const MachineConfig &sched,
                    const MachineConfig &timing, const CompileOptions &o)
    {
        const std::string key = CompileCache::key(w, sched, o) + "|t" +
                                std::to_string(timing.specHash());
        const auto [it, fresh] = index_.emplace(key, runs_.size());
        if (fresh)
            runs_.push_back({&w, sched, timing, o});
        return it->second;
    }

    std::vector<Run> runs_;
    std::map<std::string, std::size_t> index_;
    std::vector<std::vector<std::size_t>> rows_;
};

struct AliasRow
{
    const char *name;
    AliasLevel level;
};

} // namespace

int
main()
{
    bench::banner("Ablation", "design choices behind the defaults");

    MachineConfig wide = idealSuperscalar(8);
    MachineConfig fenced = idealSuperscalar(8);
    fenced.issueAcrossBranches = false;
    fenced.name += "+fence";
    MachineConfig mt = multiTitan();
    const AliasRow alias_levels[] = {
        {"Conservative", AliasLevel::Conservative},
        {"Arrays (default)", AliasLevel::Arrays},
        {"Symbols", AliasLevel::Symbols},
        {"Careful", AliasLevel::Careful}};
    const std::uint32_t temp_supplies[] = {6, 8, 12, 16, 24, 40};

    // Every row of every table, added in print order.
    SuiteRows rows;
    for (const AliasRow &r : alias_levels)
        rows.add(wide, wide, r.level, 16);
    for (std::uint32_t temps : temp_supplies)
        rows.add(wide, wide, AliasLevel::Arrays, temps);
    rows.add(wide, wide, AliasLevel::Arrays, 16);
    rows.add(fenced, fenced, AliasLevel::Arrays, 16);
    rows.add(wide, wide, AliasLevel::Arrays, 16);
    rows.add(wide, baseMachine(), AliasLevel::Arrays, 16);
    rows.add(mt, mt, AliasLevel::Arrays, 16);
    rows.add(mt, baseMachine(), AliasLevel::Arrays, 16);
    const std::vector<double> speedup = rows.evaluate();
    std::size_t next = 0;

    // --- 1. Alias level. --------------------------------------------
    Table alias_t("Scheduler memory disambiguation (suite HM speedup, "
                  "8-wide):");
    alias_t.setHeader({"alias level", "speedup"});
    for (const AliasRow &r : alias_levels)
        alias_t.row().cell(r.name).cell(speedup[next++], 3);
    alias_t.print();
    std::printf("\n");

    // --- 2. Temp registers. -----------------------------------------
    Table temps_t("Expression-temp supply (§3; suite HM speedup, "
                  "8-wide):");
    temps_t.setHeader({"temps", "speedup"});
    for (std::uint32_t temps : temp_supplies) {
        temps_t.row()
            .cell(static_cast<long long>(temps))
            .cell(speedup[next++], 3);
    }
    temps_t.print();
    std::printf("\n");

    // --- 3. Branch fencing. -----------------------------------------
    Table fence_t("Issue across predicted branches (8-wide):");
    fence_t.setHeader({"policy", "speedup"});
    fence_t.row()
        .cell("issue across branches (default)")
        .cell(speedup[next++], 3);
    fence_t.row().cell("fence at every branch").cell(speedup[next++], 3);
    fence_t.print();
    std::printf("\nnon-numeric code branches every ~6 instructions: "
                "fencing caps its ILP near\nthe block length and costs "
                "the suite a large fraction of its speedup.\n\n");

    // --- 4. Schedule-for-the-right-machine. --------------------------
    Table sched_t("Scheduling target vs timing target (8-wide "
                  "timing):");
    sched_t.setHeader({"scheduled for", "speedup"});
    sched_t.row()
        .cell("the measured machine (default)")
        .cell(speedup[next++], 3);
    sched_t.row().cell("the base machine").cell(speedup[next++], 3);
    Table sched2_t("Same, timing on the MultiTitan (real latencies):");
    sched2_t.setHeader({"scheduled for", "suite HM speedup vs base"});
    sched2_t.row().cell("the MultiTitan").cell(speedup[next++], 3);
    sched2_t.row().cell("the base machine").cell(speedup[next++], 3);
    sched_t.print();
    std::printf("\n");
    sched2_t.print();
    std::printf("\n\"the compile-time pipeline instruction scheduler "
                "knows this and schedules\nthe instructions ... so "
                "that the resulting stall time will be minimized\"\n"
                "(§3) — mis-targeted schedules leave measurable "
                "performance behind on\nlatency machines.\n");
    return 0;
}
