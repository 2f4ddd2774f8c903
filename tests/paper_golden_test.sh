#!/bin/sh
# Paper-artifact golden check: run BIN [ARGS...], check the named
# shapes of its stdout (paper_shapes.awk, keyed by GOLDEN's basename)
# and byte-compare it with the reference text in GOLDEN.  A failing
# shape prints its name and values; on a mismatch, the first differing
# line number is printed with the expected and the actual text.
#
#   paper_golden_test.sh BIN GOLDEN [ARGS...]
#
# Exit status: 0 identical with every shape holding, 1 a shape failed
# or the texts differ (or BIN failed), 2 usage.
set -u

if [ $# -lt 2 ]; then
    echo "usage: $0 BIN GOLDEN [ARGS...]" >&2
    exit 2
fi
bin=$1
golden=$2
shift 2
if [ ! -r "$golden" ]; then
    echo "paper_golden_test: cannot read golden '$golden'" >&2
    exit 2
fi

out=$(mktemp) || exit 2
trap 'rm -f "$out"' EXIT

"$bin" "$@" > "$out"
rc=$?
if [ "$rc" -ne 0 ]; then
    echo "paper_golden_test: $bin exited with status $rc" >&2
    exit 1
fi
shapes=0
awk -v artifact="$(basename "$golden" .txt)" \
    -f "$(dirname "$0")/paper_shapes.awk" "$out" || shapes=1
if cmp -s "$golden" "$out"; then
    exit "$shapes"
fi

echo "paper_golden_test: stdout of $bin differs from $golden" >&2
awk -v actual="$out" '
    function report(line, want, got) {
        printf("first difference at line %d\n", line) > "/dev/stderr"
        printf("  expected: %s\n", want) > "/dev/stderr"
        printf("  actual:   %s\n", got) > "/dev/stderr"
        reported = 1
        exit 1
    }
    {
        if ((getline got < actual) <= 0)
            report(NR, $0, "<end of output>")
        if (got != $0)
            report(NR, $0, got)
    }
    END {
        if (reported)
            exit 1
        if ((getline got < actual) > 0)
            report(NR + 1, "<end of golden>", got)
        print "  the texts differ only in line endings or a final newline" \
            > "/dev/stderr"
        exit 1
    }
' "$golden"
exit 1
