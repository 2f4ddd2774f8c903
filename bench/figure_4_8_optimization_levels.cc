/**
 * Figure 4-8: the effect of cumulative optimization levels on
 * available parallelism, per benchmark: none -> +pipeline scheduling
 * -> +intra-block optimization -> +global optimization -> +global
 * register allocation, with 16 expression temps and 26 home
 * registers.  Expected shape: scheduling raises parallelism 10-60%;
 * later classical levels barely move it (sometimes down); register
 * allocation nudges numeric benchmarks up and others slightly down.
 */

#include "bench/common.hh"

using namespace ilp;

int
main()
{
    bench::banner("Figure 4-8", "parallelism vs optimization level");

    const auto &suite = allWorkloads();
    constexpr int kLevels = 5;

    // 8 benchmarks x 5 cumulative levels = 40 cells, each its own
    // prefix: the available parallelism on the ideal 8-wide
    // superscalar.
    CellGrid grid;
    for (const Workload &w : suite) {
        for (int level = 0; level < kLevels; ++level) {
            CompileOptions o = defaultCompileOptions(w);
            o.level = static_cast<OptLevel>(level);
            o.layout.numTemp = 16;
            o.layout.numHome = 26;
            grid.add(w, o, idealSuperscalar(8));
        }
    }
    const std::vector<double> cells = bench::speedups(grid);

    Table t;
    t.setHeader({"benchmark", "none", "+sched", "+local", "+global",
                 "+regalloc"});
    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        auto &row = t.row();
        row.cell(suite[wi].name);
        for (int level = 0; level < kLevels; ++level)
            row.cell(cells[wi * kLevels +
                           static_cast<std::size_t>(level)],
                     2);
    }
    t.print();
    std::printf(
        "\npaper: \"doing pipeline scheduling can increase the "
        "available parallelism by\n10%% to 60%%... for most programs, "
        "further optimization has little effect on\nthe "
        "instruction-level parallelism (although of course it has a "
        "large effect\non the performance)\"; global register "
        "allocation slightly lowers most\nbenchmarks but raises the "
        "numeric ones (§4.4).\n");
    return 0;
}
