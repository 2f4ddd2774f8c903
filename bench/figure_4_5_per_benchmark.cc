/**
 * Figure 4-5: instruction-level parallelism by benchmark — speedup on
 * ideal superscalar machines of degree 1..8, one curve per benchmark.
 * Expected shape: yacc lowest (~1.6 in the paper), most programs near
 * 2, livermore ~2.5, 4x-unrolled linpack highest (~3.2); about a
 * factor of two between the extremes, and every curve flat after
 * degree ~4.
 */

#include "bench/common.hh"

using namespace ilp;

int
main()
{
    bench::banner("Figure 4-5",
                  "per-benchmark parallelism vs issue multiplicity");

    Study study;
    const auto &suite = allWorkloads();

    // Every (benchmark, degree) cell fans out across the pool; the
    // table is filled from the index-ordered results, so output is
    // byte-identical at any SSIM_JOBS.  Cells run degree-major, as in
    // Figure 4-1, so concurrent workers start on different workloads
    // instead of all waiting on one workload's compile.
    const std::size_t n = suite.size();
    std::vector<double> speedup = bench::sweeper().map<double>(
        n * kMaxDegree, [&](std::size_t i) {
            const Workload &w = suite[i % n];
            const int d = static_cast<int>(i / n) + 1;
            return study.speedup(w, idealSuperscalar(d));
        });

    Table t;
    std::vector<std::string> header{"benchmark"};
    for (int d = 1; d <= kMaxDegree; ++d)
        header.push_back("n=" + std::to_string(d));
    t.setHeader(header);

    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        const Workload &w = suite[wi];
        auto &row = t.row();
        row.cell(w.name + (w.defaultUnroll > 1
                               ? ".unroll" +
                                     std::to_string(w.defaultUnroll) +
                                     "x"
                               : ""));
        for (int d = 1; d <= kMaxDegree; ++d)
            row.cell(speedup[static_cast<std::size_t>(d - 1) * n + wi],
                     2);
    }
    t.print();
    std::printf("\npaper: yacc has the least parallelism (1.6); ccom, "
                "grr, met, stanford and\nwhet sit near 2; livermore "
                "approaches 2.5 and linpack.unroll4x reaches 3.2 —\n"
                "\"a factor of two difference ... but the ceiling is "
                "still quite low\" (§4.3).\n");
    return 0;
}
