#!/usr/bin/env sh
# Nightly chaos gate (docs/robustness.md): drive `ssim` through a
# matrix of seeded fault plans and kill points, requiring that
#
#  - every faulty run with retries enabled is byte-identical to the
#    clean run (fault injection changes *how* results are computed,
#    never *what* they are),
#  - unretryable plans fail with the documented exit code and a
#    structured E-code, never a crash or a hang,
#  - a run killed mid-sweep at any cell index resumes from its
#    journal byte-for-byte, at several job counts.
#
# Assumes an existing build (scripts/check.sh or the CI tier-1 job).
#
#   scripts/chaos.sh [build-dir]     default build dir: build
set -eu

BUILD_DIR="${1:-build}"
SSIM="$BUILD_DIR/src/cli/ssim"
MT=examples/mt/dotprod.mt
OUT="$BUILD_DIR/chaos"
mkdir -p "$OUT"

fail() {
    echo "chaos: FAIL: $1" >&2
    exit 1
}

[ -x "$SSIM" ] || fail "no ssim binary at $SSIM (build first)"

echo "== chaos: clean references =="
"$SSIM" ilp "$MT" --jobs 8 > "$OUT/ilp_clean.txt"
"$SSIM" suite --machine ss4 --jobs 8 > "$OUT/suite_clean.txt"

echo "== chaos: fault matrix (differential) =="
# Each plan trips a different layer; --cell-retries absorbs every
# transient, so stdout must match the clean run exactly.  Seeds vary
# per plan so the matrix covers different fire patterns every layer.
MATRIX="
cell:trap:0.5:101
cell:alloc:0.5:102
compile:trap:0.3:103
compile:alloc:0.3:104
execute:trap:0.3:105
interp:trap:0.001:106
depgraph:trap:0.5:109
*:trap:0.002:110
cell:trap:0.25:111,compile:alloc:0.2:112,execute:trap:0.2:113
"
n=0
for plan in $MATRIX; do
    n=$((n + 1))
    for jobs in 1 8; do
        SSIM_FAULT="$plan" "$SSIM" ilp "$MT" --jobs "$jobs" \
            --cell-retries 25 > "$OUT/ilp_faulty.txt" \
            || fail "plan '$plan' jobs $jobs: nonzero exit"
        cmp -s "$OUT/ilp_clean.txt" "$OUT/ilp_faulty.txt" \
            || fail "plan '$plan' jobs $jobs: output diverged"
        SSIM_FAULT="$plan" "$SSIM" suite --machine ss4 \
            --jobs "$jobs" --cell-retries 25 \
            > "$OUT/suite_faulty.txt" \
            || fail "plan '$plan' suite jobs $jobs: nonzero exit"
        cmp -s "$OUT/suite_clean.txt" "$OUT/suite_faulty.txt" \
            || fail "plan '$plan' suite jobs $jobs: output diverged"
    done
    echo "  plan $n ok: $plan"
done

echo "== chaos: retry exhaustion fails structurally =="
# rate 1 faults exhaust any retry budget: the sweep must exit 1 with
# the transient-fault E-code on stderr — no crash, no zero exit.
rc=0
SSIM_FAULT='cell:trap:1:7' "$SSIM" ilp "$MT" --jobs 8 \
    --cell-retries 2 --keep-going \
    > "$OUT/exhausted.out" 2> "$OUT/exhausted.err" || rc=$?
[ "$rc" -eq 1 ] || fail "retry exhaustion: expected exit 1, got $rc"
grep -q 'E0409' "$OUT/exhausted.err" \
    || fail "retry exhaustion: missing E0409 diagnostic"

echo "== chaos: watchdog deadline =="
rc=0
"$SSIM" ilp "$MT" --jobs 8 --cell-timeout 0.0000001 --keep-going \
    > "$OUT/deadline.out" 2> "$OUT/deadline.err" || rc=$?
[ "$rc" -eq 1 ] || fail "deadline: expected exit 1, got $rc"
grep -q 'E0410' "$OUT/deadline.err" \
    || fail "deadline: missing E0410 diagnostic"

echo "== chaos: kill-and-resume sweep (every kill point) =="
# Kill at each cell index in turn; each journal must resume to the
# clean output byte-for-byte, including resuming at other job counts.
for kill_at in 0 1 2 3 4 5 6 7; do
    J="$OUT/kill_$kill_at.jsonl"
    rm -f "$J"
    rc=0
    SSIM_FAULT="cell:exit:1:$kill_at" "$SSIM" ilp "$MT" --jobs 1 \
        --journal "$J" > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq 137 ] \
        || fail "kill@$kill_at: expected exit 137, got $rc"
    lines=$(wc -l < "$J")
    [ "$lines" -eq $((kill_at + 1)) ] \
        || fail "kill@$kill_at: expected $((kill_at + 1)) journal \
lines, got $lines"
    for jobs in 1 8; do
        "$SSIM" ilp "$MT" --jobs "$jobs" --resume "$J" \
            > "$OUT/resumed.txt" \
            || fail "kill@$kill_at jobs $jobs: resume failed"
        cmp -s "$OUT/ilp_clean.txt" "$OUT/resumed.txt" \
            || fail "kill@$kill_at jobs $jobs: resumed output \
diverged"
    done
done

echo "== chaos: kill-and-resume under concurrent faults =="
# Kill mid-sweep while transient faults also fire, then resume under
# a *different* fault plan: the journaled prefix plus retried
# completion must still be byte-identical to clean.
J="$OUT/kill_faulty.jsonl"
rm -f "$J"
rc=0
SSIM_FAULT='cell:exit:1:5,compile:alloc:0.3:20' "$SSIM" ilp "$MT" \
    --jobs 1 --cell-retries 25 --journal "$J" > /dev/null 2>&1 \
    || rc=$?
[ "$rc" -eq 137 ] || fail "faulty kill: expected exit 137, got $rc"
SSIM_FAULT='execute:trap:0.3:21' "$SSIM" ilp "$MT" --jobs 8 \
    --cell-retries 25 --resume "$J" > "$OUT/resumed_faulty.txt" \
    || fail "faulty resume failed"
cmp -s "$OUT/ilp_clean.txt" "$OUT/resumed_faulty.txt" \
    || fail "faulty resume diverged from clean"

echo "== chaos: suite journal resume =="
J="$OUT/suite.jsonl"
rm -f "$J"
"$SSIM" suite --machine ss4 --jobs 8 --journal "$J" > /dev/null
"$SSIM" suite --machine ss4 --jobs 8 --resume "$J" \
    > "$OUT/suite_resumed.txt"
cmp -s "$OUT/suite_clean.txt" "$OUT/suite_resumed.txt" \
    || fail "suite resume diverged"

echo "== chaos: OK =="
