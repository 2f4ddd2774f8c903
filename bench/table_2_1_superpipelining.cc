/**
 * Table 2-1: the average degree of superpipelining for the MultiTitan
 * and the CRAY-1 — first with the paper's nominal instruction mix
 * (must reproduce 1.7 and 4.4 exactly), then with the dynamic mix
 * measured from our benchmark suite.
 */

#include "bench/common.hh"
#include "core/metrics/metrics.hh"
#include "core/study/driver.hh"

using namespace ilp;

int
main()
{
    bench::banner("Table 2-1", "average degree of superpipelining");

    // --- The paper's nominal mix. -----------------------------------
    Table nominal("Nominal mix (paper's frequencies):");
    nominal.setHeader({"class", "freq", "MultiTitan lat", "= contrib",
                       "CRAY-1 lat", "= contrib"});
    for (const auto &row : paperNominalMix()) {
        nominal.row()
            .cell(row.klass)
            .cell(row.frequency, 2)
            .cell(static_cast<long long>(row.multiTitanLatency))
            .cell(row.frequency * row.multiTitanLatency, 2)
            .cell(static_cast<long long>(row.cray1Latency))
            .cell(row.frequency * row.cray1Latency, 2);
    }
    nominal.row()
        .cell("TOTAL (avg degree)")
        .cell("")
        .cell("")
        .cell(nominalMultiTitanSuperpipelining(), 1)
        .cell("")
        .cell(nominalCray1Superpipelining(), 1);
    nominal.print();
    std::printf("paper: MultiTitan 1.7, CRAY-1 4.4\n\n");

    // --- Measured mix from our suite. --------------------------------
    MachineConfig mt = multiTitan();
    MachineConfig cray = cray1();

    Table measured("Measured dynamic mix (this suite, full "
                   "optimization):");
    measured.setHeader(
        {"benchmark", "avg degree (MultiTitan)", "avg degree (CRAY-1)"});
    const auto &suite = allWorkloads();
    const std::vector<ClassFrequencies> mixes =
        bench::sweeper().map<ClassFrequencies>(
            suite.size(), [&](std::size_t i) {
                return profileWorkload(suite[i],
                                       defaultCompileOptions(suite[i]));
            });
    for (std::size_t i = 0; i < suite.size(); ++i) {
        measured.row()
            .cell(suite[i].name)
            .cell(averageDegreeOfSuperpipelining(mixes[i], mt.latency), 2)
            .cell(averageDegreeOfSuperpipelining(mixes[i], cray.latency),
                  2);
    }
    measured.print();
    std::printf("\nReading: both machines already exploit much of the"
                " available ILP\nthrough operation latency alone "
                "(\"many machines already exploit most of\nthe "
                "parallelism available in non-numeric code\", §6).\n");
    return 0;
}
