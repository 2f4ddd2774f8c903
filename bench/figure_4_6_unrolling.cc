/**
 * Figure 4-6: parallelism versus loop unrolling for linpack and
 * livermore, naive and careful, factors 1..10, with the paper's
 * forty temporary registers.  Expected shape: naive unrolling is
 * "mostly flat after unrolling by four"; careful unrolling keeps
 * improving but stays well below the unroll factor, limited by
 * non-parallel code and the finite temp file (§4.4).
 */

#include "bench/common.hh"

using namespace ilp;

namespace {

CompileOptions
unrolled(const Workload &w, int factor, bool careful)
{
    CompileOptions o = defaultCompileOptions(w);
    o.unroll.factor = factor;
    o.unroll.careful = careful;
    // Careful unrolling pairs with the hand-analysis alias level the
    // paper used for exactly these two benchmarks.
    o.alias = careful ? AliasLevel::Heroic : AliasLevel::Arrays;
    o.layout.numTemp = 40; // "only forty temporary registers"
    return o;
}

} // namespace

int
main()
{
    bench::banner("Figure 4-6", "parallelism vs loop unrolling");

    const Workload &linpack = workloadByName("linpack");
    const Workload &livermore = workloadByName("livermore");
    const std::vector<int> factors{1, 2, 4, 6, 8, 10};

    // 6 factors x 4 (benchmark, mode) columns = 24 cells, each its
    // own prefix: the available parallelism on the ideal 8-wide
    // superscalar.
    CellGrid grid;
    for (int u : factors) {
        for (const Workload *w : {&linpack, &livermore}) {
            for (bool careful : {false, true})
                grid.add(*w, unrolled(*w, u, careful),
                         idealSuperscalar(8));
        }
    }
    const std::vector<double> cells = bench::speedups(grid);

    Table t;
    t.setHeader({"iterations unrolled", "linpack naive",
                 "linpack careful", "livermore naive",
                 "livermore careful"});
    for (std::size_t fi = 0; fi < factors.size(); ++fi) {
        t.row()
            .cell(static_cast<long long>(factors[fi]))
            .cell(cells[fi * 4 + 0], 2)
            .cell(cells[fi * 4 + 1], 2)
            .cell(cells[fi * 4 + 2], 2)
            .cell(cells[fi * 4 + 3], 2);
    }
    t.print();
    std::printf(
        "\npaper: naive improvement \"is mostly flat after unrolling "
        "by four ...\nbecause of false conflicts between the "
        "different copies\"; careful\nunrolling \"gives us a more "
        "dramatic improvement, but the parallelism\navailable is "
        "still limited even for tenfold unrolling\" (§4.4).\n");
    return 0;
}
