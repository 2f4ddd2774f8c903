/**
 * Figure 4-4: parallel instruction issue on the CRAY-1 with unit
 * latencies (the mistaken assumption of [Acosta et al.]) versus its
 * real functional-unit latencies.  Expected shape: large gains from
 * multiple issue under unit latencies, almost none under real
 * latencies, because the CRAY-1's average degree of superpipelining
 * (4.4) already covers the available parallelism.
 */

#include "bench/common.hh"

using namespace ilp;

int
main()
{
    bench::banner("Figure 4-4",
                  "CRAY-1 issue multiplicity, unit vs real latencies");

    // Widths 1..8 with unit latencies, then widths 1..8 with the real
    // ones.
    constexpr int kWidths = 8;
    std::vector<MachineConfig> machines;
    for (bool unit_latencies : {true, false}) {
        for (int width = 1; width <= kWidths; ++width) {
            MachineConfig m = cray1(unit_latencies);
            m.issueWidth = width;
            m.name += "+w" + std::to_string(width);
            machines.push_back(m);
        }
    }
    Study study;
    const std::vector<double> hm =
        bench::harmonicSpeedups(study, machines);

    // Normalize each curve to its own multiplicity-1 point, like the
    // paper's "relative performance" axis.
    const double unit1 = hm[0];
    const double real1 = hm[kWidths];

    Table t;
    t.setHeader({"issue multiplicity", "all latencies = 1",
                 "actual CRAY-1 latencies"});
    for (int width = 1; width <= kWidths; ++width) {
        const auto w = static_cast<std::size_t>(width - 1);
        t.row()
            .cell(static_cast<long long>(width))
            .cell(hm[w] / unit1, 3)
            .cell(hm[kWidths + w] / real1, 3);
    }
    t.print();
    std::printf("\npaper: up to ~2.7x apparent speedup with unit "
                "latencies, and almost no\nbenefit with the actual "
                "latencies taken into account (§4.2).\n");
    return 0;
}
