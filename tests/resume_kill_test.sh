#!/bin/sh
# Kill-mid-sweep / resume acceptance test (docs/robustness.md).
#
# Uses the seeded "exit" fault kind to _exit(137) the ssim process at
# the 4th cell attempt of an 8-degree ilp sweep, then resumes from
# the journal and requires:
#  - the journal holds exactly header + 3 completed cells, each
#    recording its instructions, cycles and base_cycles (the base
#    machine's cycles, equal to the instructions),
#  - the resumed run's stdout is byte-identical to an uninterrupted
#    run,
#  - the stats-json meta.resume block reports the skipped/replayed
#    split exactly, and the meta names no machine (the sweep times
#    superscalar(1..8), not --machine),
#  - a second resume skips every cell and still reproduces the
#    output byte-for-byte.
# Then kills an 8-workload `ssim suite` sweep the same way, checks
# its journaled cells the same way (both commands write one record
# shape), and resumes it at 4 jobs to the uninterrupted output.
#
# usage: resume_kill_test.sh /path/to/ssim /path/to/program.mt
set -eu

SSIM="$1"
SRC="$2"
TMP="${TMPDIR:-/tmp}/resume_kill_$$"
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

fail() {
    echo "resume_kill_test: $1" >&2
    exit 1
}

# Cell records in journal $1 with instructions > 0, cycles > 0 and
# base_cycles == instructions.
cell_records() {
    awk -F '"instructions":|,"cycles":|,"base_cycles":|}' \
        '/"kind":"cell"/ && $2 > 0 && $3 > 0 && $4 == $2 { n++ }
         END { print n + 0 }' "$1"
}

# Uninterrupted reference run.
"$SSIM" ilp "$SRC" --jobs 1 > "$TMP/clean.out" \
    || fail "clean run failed"

# Deterministic kill: the exit rule fires at cell-site draw index 3,
# i.e. right before the 4th cell runs (jobs 1 keeps draw order equal
# to cell order).
rc=0
SSIM_FAULT='cell:exit:1:3' "$SSIM" ilp "$SRC" --jobs 1 \
    --journal "$TMP/sweep.jsonl" > "$TMP/killed.out" 2>&1 || rc=$?
[ "$rc" -eq 137 ] || fail "expected kill exit 137, got $rc"
[ -f "$TMP/sweep.jsonl" ] || fail "no journal written before kill"

lines=$(wc -l < "$TMP/sweep.jsonl")
[ "$lines" -eq 4 ] \
    || fail "expected 4 journal lines (header + 3 cells), got $lines"
records=$(cell_records "$TMP/sweep.jsonl")
[ "$records" -eq 3 ] \
    || fail "$records ilp cells with base_cycles == instructions, not 3"

# Resume completes the remaining 5 cells and reproduces the clean
# output byte-for-byte.
"$SSIM" ilp "$SRC" --jobs 1 --resume "$TMP/sweep.jsonl" \
    --stats-json "$TMP/resumed.json" > "$TMP/resumed.out" \
    || fail "resume run failed"
cmp -s "$TMP/resumed.out" "$TMP/clean.out" \
    || fail "resumed stdout differs from the clean run"
grep -q '"skipped": 3' "$TMP/resumed.json" \
    || fail "meta.resume.skipped != 3"
grep -q '"replayed": 5' "$TMP/resumed.json" \
    || fail "meta.resume.replayed != 5"
if grep -q '"machine' "$TMP/resumed.json"; then
    fail "ilp meta names a machine the sweep never timed"
fi

# A second resume finds every cell journaled: nothing re-runs, the
# output is still identical.
"$SSIM" ilp "$SRC" --jobs 1 --resume "$TMP/sweep.jsonl" \
    --stats-json "$TMP/resumed2.json" > "$TMP/resumed2.out" \
    || fail "second resume failed"
cmp -s "$TMP/resumed2.out" "$TMP/clean.out" \
    || fail "fully-journaled resume stdout differs"
grep -q '"skipped": 8' "$TMP/resumed2.json" \
    || fail "second resume should skip all 8 cells"
grep -q '"replayed": 0' "$TMP/resumed2.json" \
    || fail "second resume should replay 0 cells"

# Identity guard: resuming with different compile options must be
# refused, not silently mixed.
rc=0
"$SSIM" ilp "$SRC" --unroll 4 --jobs 1 \
    --resume "$TMP/sweep.jsonl" > "$TMP/mismatch.out" 2>&1 || rc=$?
[ "$rc" -eq 1 ] || fail "identity mismatch should exit 1, got $rc"
grep -q "refusing to resume" "$TMP/mismatch.out" \
    || fail "identity mismatch should name the refusal"

# ssim suite: kill before the 4th workload, resume on 4 workers.
"$SSIM" suite --machine ss4 --jobs 1 > "$TMP/suite_clean.out" \
    || fail "clean suite run failed"
rc=0
SSIM_FAULT='cell:exit:1:3' "$SSIM" suite --machine ss4 --jobs 1 \
    --journal "$TMP/suite.jsonl" > "$TMP/suite_killed.out" 2>&1 \
    || rc=$?
[ "$rc" -eq 137 ] || fail "expected suite kill exit 137, got $rc"
lines=$(wc -l < "$TMP/suite.jsonl")
[ "$lines" -eq 4 ] \
    || fail "expected 4 suite journal lines (header + 3 cells), got $lines"
records=$(cell_records "$TMP/suite.jsonl")
[ "$records" -eq 3 ] \
    || fail "$records suite cells with base_cycles == instructions, not 3"
"$SSIM" suite --machine ss4 --jobs 4 --resume "$TMP/suite.jsonl" \
    > "$TMP/suite_resumed.out" || fail "suite resume failed"
cmp -s "$TMP/suite_resumed.out" "$TMP/suite_clean.out" \
    || fail "resumed suite stdout differs from the clean run"

echo "resume_kill_test: ok"
