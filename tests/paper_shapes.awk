# Named shape assertions on a paper artifact's stdout: the qualitative
# results of Jouppi & Wall that must hold whatever the exact numbers.
# A failing shape prints its name and the offending values to stderr.
#
#   awk -v artifact=NAME -f paper_shapes.awk OUTPUT
#
# NAME is the artifact's reference basename (figure_4_1_supersymmetry,
# ...); an artifact without shapes passes.  Exit status: 0 every shape
# holds, 1 one failed.

function fail(shape, detail) {
    printf("shape %s failed: %s\n", shape, detail) > "/dev/stderr"
    failed = 1
}

# Figure 4-1 rows: degree, superscalar, superpipelined, gap (SS/SP).
artifact == "figure_4_1_supersymmetry" && NF == 4 && $1 ~ /^[0-9]+$/ {
    gap[$1] = $4
}

# Figure 4-4 rows: issue multiplicity, unit latencies, real latencies.
artifact == "figure_4_4_cray1" && NF == 3 && $1 ~ /^[0-9]+$/ {
    unit[$1] = $2
    real[$1] = $3
}

# Figure 4-5 rows: benchmark, then n=1..8 (linpack.unroll4x is keyed
# as linpack).
artifact == "figure_4_5_per_benchmark" && NF == 9 && $2 ~ /^[0-9.]+$/ {
    split($1, name, ".")
    at8[name[1]] = $9
}

# Figure 4-6 rows: unroll factor, linpack naive/careful, livermore
# naive/careful.
artifact == "figure_4_6_unrolling" && NF == 5 && $1 ~ /^[0-9]+$/ {
    unrolls++
    factor[unrolls] = $1
    naive["linpack", unrolls] = $2
    careful["linpack", unrolls] = $3
    naive["livermore", unrolls] = $4
    careful["livermore", unrolls] = $5
}

# Table 2-1's nominal-mix TOTAL row: MultiTitan, then CRAY-1.
artifact == "table_2_1_superpipelining" && $1 == "TOTAL" {
    totals = $(NF - 1) " " $NF
}

END {
    if (artifact == "figure_4_1_supersymmetry") {
        s = "fig4-1.gap-narrows-from-degree-3-to-8"
        for (d = 3; d <= 8; d++)
            if (!(d in gap))
                fail(s, "no row for degree " d)
        for (d = 4; d <= 8; d++)
            if ((d in gap) && ((d - 1) in gap) &&
                gap[d] + 0 >= gap[d - 1] + 0)
                fail(s, sprintf("gap %s at degree %d is not below %s at degree %d",
                                gap[d], d, gap[d - 1], d - 1))
    }
    if (artifact == "figure_4_4_cray1") {
        s = "fig4-4.only-unit-latencies-gain-from-multiple-issue"
        for (w = 1; w <= 8; w++) {
            if (!(w in real))
                fail(s, "no row for issue multiplicity " w)
            else if (real[w] + 0 > 1.10)
                fail(s, sprintf("real-latency gain %s at width %d is above 1.10",
                                real[w], w))
        }
        if ((8 in unit) && unit[8] + 0 <= 1.5)
            fail(s, sprintf("unit-latency gain %s at width 8 is not above 1.5",
                            unit[8]))
    }
    if (artifact == "figure_4_5_per_benchmark") {
        s = "fig4-5.linpack-over-livermore-over-nonnumeric-at-n8"
        n = split("linpack livermore ccom grr met stanford yacc", want, " ")
        for (i = 1; i <= n; i++)
            if (!(want[i] in at8))
                fail(s, "no row for " want[i])
        if (("linpack" in at8) && ("livermore" in at8) &&
            at8["linpack"] + 0 <= at8["livermore"] + 0)
            fail(s, sprintf("linpack %s is not above livermore %s",
                            at8["linpack"], at8["livermore"]))
        for (i = 3; i <= n; i++)
            if (("livermore" in at8) && (want[i] in at8) &&
                at8["livermore"] + 0 <= at8[want[i]] + 0)
                fail(s, sprintf("livermore %s is not above %s %s",
                                at8["livermore"], want[i], at8[want[i]]))
    }
    if (artifact == "figure_4_6_unrolling") {
        s = "fig4-6.careful-beats-naive-from-2x"
        split("linpack livermore", bench, " ")
        checked = 0
        for (r = 1; r <= unrolls; r++) {
            if (factor[r] + 0 < 2)
                continue
            checked++
            for (b = 1; b <= 2; b++)
                if (careful[bench[b], r] + 0 <= naive[bench[b], r] + 0)
                    fail(s, sprintf("%s careful %s is not above naive %s at %sx",
                                    bench[b], careful[bench[b], r],
                                    naive[bench[b], r], factor[r]))
        }
        if (!checked)
            fail(s, "no rows unrolled 2x or more")
    }
    if (artifact == "table_2_1_superpipelining") {
        s = "table2-1.nominal-totals-1.7-and-4.4"
        if (totals != "1.7 4.4")
            fail(s, "TOTAL row reads \"" totals "\"")
    }
    exit failed
}
