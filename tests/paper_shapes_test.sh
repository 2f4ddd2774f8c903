#!/bin/sh
# Self-test of paper_shapes.awk: every shape holds on its reference in
# REFS, and fails, by name, on a copy of that reference edited to
# break it.
#
#   paper_shapes_test.sh REFS
#
# Exit status: 0 pass, 1 a shape passed a broken copy or failed its
# reference, 2 usage.
set -u

if [ $# -ne 1 ]; then
    echo "usage: $0 REFS" >&2
    exit 2
fi
refs=$1
shapes="$(dirname "$0")/paper_shapes.awk"
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
status=0

# expect ARTIFACT SHAPE SED-EDIT: the edit must break exactly SHAPE.
expect() {
    ref="$refs/$1.txt"
    if ! awk -v artifact="$1" -f "$shapes" "$ref" 2> "$tmp/err"; then
        echo "FAIL: $2 fails on the reference:" >&2
        cat "$tmp/err" >&2
        status=1
    fi
    sed "$3" "$ref" > "$tmp/edited"
    if cmp -s "$ref" "$tmp/edited"; then
        echo "FAIL: edit '$3' leaves $1 unchanged" >&2
        status=1
    elif awk -v artifact="$1" -f "$shapes" "$tmp/edited" 2> "$tmp/err"; then
        echo "FAIL: $2 holds on $1 edited with '$3'" >&2
        status=1
    elif ! grep -q "^shape $2 failed: " "$tmp/err"; then
        echo "FAIL: $2 not named in:" >&2
        cat "$tmp/err" >&2
        status=1
    fi
}

expect figure_4_1_supersymmetry fig4-1.gap-narrows-from-degree-3-to-8 \
    '/^8 /s/1\.112$/1.122/'
expect figure_4_4_cray1 fig4-4.only-unit-latencies-gain-from-multiple-issue \
    '/^8 /s/1\.088$/1.188/'
expect figure_4_4_cray1 fig4-4.only-unit-latencies-gain-from-multiple-issue \
    '/^8 /s/1\.888/1.488/'
expect figure_4_5_per_benchmark \
    fig4-5.linpack-over-livermore-over-nonnumeric-at-n8 \
    '/^yacc /s/1\.78$/2.30/'
expect figure_4_6_unrolling fig4-6.careful-beats-naive-from-2x \
    '/^2 /s/3\.11/2.70/'
expect table_2_1_superpipelining table2-1.nominal-totals-1.7-and-4.4 \
    '/^TOTAL /s/4\.4$/4.5/'
exit "$status"
