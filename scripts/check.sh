#!/usr/bin/env sh
# Tier-1 gate: configure, build, run the test suite, then smoke the
# observability surface (a suite run with --stats-json whose output
# must parse).  Exits non-zero on the first failure.
#
#   scripts/check.sh [build-dir]     default build dir: build
set -eu

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== configure =="
cmake -B "$BUILD_DIR" -S .

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure

echo "== stats smoke =="
# Stats documents hold no host time, so they are deterministic: the
# suite's is byte-identical at one job and at four, and two runs of
# one program write the same bytes.
STATS_JSON="$BUILD_DIR/check_stats.json"
STATS_JSON_PAR="$BUILD_DIR/check_stats_par.json"
RUN_STATS_A="$BUILD_DIR/check_run_stats_a.json"
RUN_STATS_B="$BUILD_DIR/check_run_stats_b.json"
"$BUILD_DIR/src/cli/ssim" suite --machine ss4 --jobs 1 \
    --stats-json "$STATS_JSON" > /dev/null
"$BUILD_DIR/src/cli/ssim" check-json "$STATS_JSON"
"$BUILD_DIR/src/cli/ssim" suite --machine ss4 --jobs 4 \
    --stats-json "$STATS_JSON_PAR" > /dev/null
cmp "$STATS_JSON" "$STATS_JSON_PAR"
"$BUILD_DIR/src/cli/ssim" run examples/mt/dotprod.mt --machine ss2x2 \
    --stats-json "$RUN_STATS_A" > /dev/null
"$BUILD_DIR/src/cli/ssim" run examples/mt/dotprod.mt --machine ss2x2 \
    --stats-json "$RUN_STATS_B" > /dev/null
"$BUILD_DIR/src/cli/ssim" check-json "$RUN_STATS_A"
cmp "$RUN_STATS_A" "$RUN_STATS_B"

echo "== profile smoke =="
# The cycle profiler must render a hot-loop listing, emit valid JSON,
# and be byte-identical serial vs parallel.
PROF_JSON="$BUILD_DIR/check_profile.json"
PROF_JSON_PAR="$BUILD_DIR/check_profile_par.json"
"$BUILD_DIR/src/cli/ssim" profile examples/mt/dotprod.mt \
    --machine sp4 --profile-json "$PROF_JSON" \
    > "$BUILD_DIR/check_profile.txt"
"$BUILD_DIR/src/cli/ssim" check-json "$PROF_JSON"
grep -q 'hottest loops' "$BUILD_DIR/check_profile.txt"
grep -q 'raw_latency' "$BUILD_DIR/check_profile.txt"
"$BUILD_DIR/src/cli/ssim" profile examples/mt/dotprod.mt \
    --machine sp4 --jobs 8 --profile-json "$PROF_JSON_PAR" \
    > /dev/null
cmp "$PROF_JSON" "$PROF_JSON_PAR"
"$BUILD_DIR/src/cli/ssim" profile examples/mt/dotprod.mt \
    --diff base sp4 > "$BUILD_DIR/check_profile_diff.txt"
grep -q 'speedup B/A' "$BUILD_DIR/check_profile_diff.txt"

echo "== fault containment smoke =="
# A malformed program must produce structured diagnostics and exit 1
# (not 0, not a signal); a bad flag must exit 2.
BAD_MT="$BUILD_DIR/check_bad.mt"
printf 'func main( { return 0; }\n' > "$BAD_MT"
rc=0
"$BUILD_DIR/src/cli/ssim" run "$BAD_MT" 2> "$BUILD_DIR/check_bad.err" \
    || rc=$?
[ "$rc" -eq 1 ]
grep -q 'error\[E0' "$BUILD_DIR/check_bad.err"
rc=0
"$BUILD_DIR/src/cli/ssim" run "$BAD_MT" --machine nope 2>/dev/null \
    || rc=$?
[ "$rc" -eq 2 ]

echo "== fuzz corpus replay =="
"$BUILD_DIR/tools/fuzz/fuzz_mt_parser_replay" tools/fuzz/corpus/mt/*
"$BUILD_DIR/tools/fuzz/fuzz_json_replay" tools/fuzz/corpus/json/*
# Parseable corpus programs also execute on the VM and on its
# oracle, the interpreter, with their checksums diffed.
"$BUILD_DIR/tools/fuzz/fuzz_mt_exec_replay" tools/fuzz/corpus/mt/*

echo "== large-frame smoke =="
# The bytecode VM is the only executor.  A straight-line program whose
# frontend uses more than 65,535 virtual registers must still run on
# it (its allocated frame is the register layout), so the trace has a
# `bytecode` span and no `interp` span; `--exec` is gone, so it is an
# unknown flag like any other.
BIG_MT="$BUILD_DIR/check_big.mt"
BIG_TRACE="$BUILD_DIR/check_big_trace.json"
awk 'BEGIN {
    print "var int a[16];"
    print "func main() : int {"
    print "    var int i; var int k; var int s;"
    print "    for (i = 0; i < 16; i = i + 1) { a[i] = i * 3 + 1; }"
    print "    i = 5; k = 7; s = 0;"
    for (n = 0; n < 11000; n++) print "    s = s + a[i % 16] * k;"
    print "    return s;"
    print "}"
}' > "$BIG_MT"
"$BUILD_DIR/src/cli/ssim" run "$BIG_MT" --level 0 \
    --trace-events "$BIG_TRACE" > /dev/null
grep -q '"bytecode"' "$BIG_TRACE"
if grep -q '"interp"' "$BIG_TRACE"; then
    echo "ERROR: the large-frame run used the interpreter" >&2
    exit 1
fi
rc=0
"$BUILD_DIR/src/cli/ssim" run examples/mt/dotprod.mt --exec bytecode \
    2> /dev/null || rc=$?
[ "$rc" -eq 2 ]

echo "== parallel sweep smoke =="
# A bench sweep must be byte-identical serial vs parallel, and a
# suite stats document written under SSIM_JOBS=2 must parse.
SWEEP_SERIAL="$BUILD_DIR/check_sweep_serial.txt"
SWEEP_PAR="$BUILD_DIR/check_sweep_parallel.txt"
SSIM_JOBS=1 "$BUILD_DIR/bench/figure_4_5_per_benchmark" \
    > "$SWEEP_SERIAL"
SSIM_JOBS="$JOBS" "$BUILD_DIR/bench/figure_4_5_per_benchmark" \
    > "$SWEEP_PAR"
cmp "$SWEEP_SERIAL" "$SWEEP_PAR"
SSIM_JOBS=2 "$BUILD_DIR/src/cli/ssim" suite --machine ss4 \
    --stats-json "$STATS_JSON" > /dev/null
"$BUILD_DIR/src/cli/ssim" check-json "$STATS_JSON"

echo "== what-if smoke =="
# The analytic engine must answer whatif queries (valid JSON, a
# certified verdict on an ideal machine), and the slack listing must
# render.
WHATIF_JSON="$BUILD_DIR/check_whatif.json"
"$BUILD_DIR/src/cli/ssim" whatif examples/mt/dotprod.mt \
    --machine ss4 --stats-json "$WHATIF_JSON" \
    > "$BUILD_DIR/check_whatif.txt"
"$BUILD_DIR/src/cli/ssim" check-json "$WHATIF_JSON"
grep -q 'certified exact' "$BUILD_DIR/check_whatif.txt"
grep -q 'oracle ilp bound' "$BUILD_DIR/check_whatif.txt"
"$BUILD_DIR/src/cli/ssim" profile examples/mt/dotprod.mt \
    --machine cray1 --slack > "$BUILD_DIR/check_slack.txt"
grep -q 'would speed up if' "$BUILD_DIR/check_slack.txt"

echo "== flight recorder smoke =="
# A traced run or sweep must be byte-identical to an untraced one on
# stdout, and the trace export must be valid JSON with the expected
# shape (recorder spans for the run's compiles and timing runs plus
# its issue timeline, one named track per sweep worker).
TRACE_JSON="$BUILD_DIR/check_trace.json"
RUN_PLAIN="$BUILD_DIR/check_run_plain.txt"
RUN_TRACED="$BUILD_DIR/check_run_traced.txt"
"$BUILD_DIR/src/cli/ssim" run examples/mt/dotprod.mt --machine ss2x2 \
    > "$RUN_PLAIN"
"$BUILD_DIR/src/cli/ssim" run examples/mt/dotprod.mt --machine ss2x2 \
    --trace-events "$TRACE_JSON" > "$RUN_TRACED"
cmp "$RUN_PLAIN" "$RUN_TRACED"
"$BUILD_DIR/src/cli/ssim" check-json "$TRACE_JSON"
grep -q '"frontend.parse"' "$TRACE_JSON"
grep -q '"live_run"' "$TRACE_JSON"
grep -q '"issue"' "$TRACE_JSON"
SWEEP_PLAIN="$BUILD_DIR/check_sweep_plain.txt"
SWEEP_TRACED="$BUILD_DIR/check_sweep_traced.txt"
SWEEP_TRACE_JSON="$BUILD_DIR/check_sweep_trace.json"
"$BUILD_DIR/src/cli/ssim" ilp examples/mt/dotprod.mt --jobs 8 \
    > "$SWEEP_PLAIN"
"$BUILD_DIR/src/cli/ssim" ilp examples/mt/dotprod.mt --jobs 8 \
    --trace-events "$SWEEP_TRACE_JSON" > "$SWEEP_TRACED"
cmp "$SWEEP_PLAIN" "$SWEEP_TRACED"
"$BUILD_DIR/src/cli/ssim" check-json "$SWEEP_TRACE_JSON"
grep -q '"thread_name"' "$SWEEP_TRACE_JSON"
grep -q '"worker 0"' "$SWEEP_TRACE_JSON"

echo "== survivability smoke =="
# Fault injection must never change results: a sweep under a seeded
# fault plan with retries enabled is byte-identical to a clean run,
# its stats-json `meta.cells` shows the retries and no failed or
# quarantined cell, and a run killed mid-sweep resumes from its
# journal byte-for-byte (the full matrix runs nightly via
# scripts/chaos.sh).
CHAOS_CLEAN="$BUILD_DIR/check_chaos_clean.txt"
CHAOS_FAULTY="$BUILD_DIR/check_chaos_faulty.txt"
CHAOS_STATS="$BUILD_DIR/check_chaos_stats.json"
CHAOS_JOURNAL="$BUILD_DIR/check_chaos.jsonl"
CHAOS_RESUMED="$BUILD_DIR/check_chaos_resumed.txt"
"$BUILD_DIR/src/cli/ssim" ilp examples/mt/dotprod.mt --jobs 8 \
    > "$CHAOS_CLEAN"
SSIM_FAULT='cell:trap:0.3:7,compile:alloc:0.2:8' \
    "$BUILD_DIR/src/cli/ssim" ilp examples/mt/dotprod.mt --jobs 8 \
    --cell-retries 10 --stats-json "$CHAOS_STATS" > "$CHAOS_FAULTY"
cmp "$CHAOS_CLEAN" "$CHAOS_FAULTY"
grep -q '"failed": 0' "$CHAOS_STATS"
grep -q '"quarantined": 0' "$CHAOS_STATS"
grep -Eq '"retries": [1-9]' "$CHAOS_STATS"
rm -f "$CHAOS_JOURNAL"
rc=0
SSIM_FAULT='cell:exit:1:3' "$BUILD_DIR/src/cli/ssim" ilp \
    examples/mt/dotprod.mt --jobs 1 --journal "$CHAOS_JOURNAL" \
    > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 137 ]
"$BUILD_DIR/src/cli/ssim" ilp examples/mt/dotprod.mt --jobs 8 \
    --resume "$CHAOS_JOURNAL" > "$CHAOS_RESUMED"
cmp "$CHAOS_CLEAN" "$CHAOS_RESUMED"

echo "== lock artifact lint =="
# flock() sidecars (*.lock) are runtime artifacts; one committed by
# accident would make every later bench append contend on a tracked
# file.  Fail when any is in the index.
if [ -n "$(git ls-files '*.lock' 2>/dev/null)" ]; then
    echo "ERROR: lock artifacts are committed:" >&2
    git ls-files '*.lock' >&2
    exit 1
fi

echo "== tracing overhead guard (soft) =="
# BM_ParallelSweepTraced vs BM_ParallelSweep at one job: warn — never
# fail — when arming the flight recorder costs more than the 2%
# budget.  Samples from 3 repetitions land in a fresh bench-v2
# trajectory; the sentinel's --compare mode judges pooled medians
# (rank-test p-value reported alongside).
GUARD_TRAJ="$BUILD_DIR/check_guard_bench.json"
rm -f "$GUARD_TRAJ" "$GUARD_TRAJ.bak" "$GUARD_TRAJ.lock"
SSIM_BENCH_STATS="$GUARD_TRAJ" "$BUILD_DIR/bench/throughput" \
    --benchmark_filter='BM_ParallelSweep(Traced)?/1$' \
    --benchmark_repetitions=3 > /dev/null 2>&1
"$BUILD_DIR/src/cli/ssim" bench-check "$GUARD_TRAJ" --soft \
    --compare 'BM_ParallelSweep/1' 'BM_ParallelSweepTraced/1' \
    --budget 2

echo "== bytecode speed guard (soft) =="
# BM_BytecodeRun vs BM_FunctionalSimulation: the bytecode VM must
# never be slower than the IR-walk interpreter on the smoke workload
# (budget 0%: any overhead is a warning).  Warn — never fail — so a
# loaded CI host cannot flake the gate.
EXEC_TRAJ="$BUILD_DIR/check_exec_bench.json"
rm -f "$EXEC_TRAJ" "$EXEC_TRAJ.bak" "$EXEC_TRAJ.lock"
SSIM_BENCH_STATS="$EXEC_TRAJ" "$BUILD_DIR/bench/throughput" \
    --benchmark_filter='BM_(FunctionalSimulation|BytecodeRun)$' \
    --benchmark_repetitions=3 > /dev/null 2>&1
"$BUILD_DIR/src/cli/ssim" bench-check "$EXEC_TRAJ" --soft \
    --compare 'BM_FunctionalSimulation' 'BM_BytecodeRun' \
    --budget 0

echo "== bench sentinel smoke =="
# The committed perf trajectory must load (every row a bench-v2
# sample row) and the verdict table must be byte-stable across reruns
# on identical input — CI diffs it against the job summary.
SENTINEL_A="$BUILD_DIR/check_sentinel_a.txt"
SENTINEL_B="$BUILD_DIR/check_sentinel_b.txt"
"$BUILD_DIR/src/cli/ssim" bench-check BENCH_throughput.json --soft \
    > "$SENTINEL_A" 2> /dev/null
"$BUILD_DIR/src/cli/ssim" bench-check BENCH_throughput.json --soft \
    > "$SENTINEL_B" 2> /dev/null
cmp "$SENTINEL_A" "$SENTINEL_B"
grep -q 'verdict' "$SENTINEL_A"

echo "== report smoke =="
# `ssim report` must emit one self-contained HTML document (inline
# SVG, no script tag, no external fetches), deterministically, with
# the sweep trace's host time tabulated by span.
REPORT_A="$BUILD_DIR/check_report_a.html"
REPORT_B="$BUILD_DIR/check_report_b.html"
"$BUILD_DIR/src/cli/ssim" report --bench BENCH_throughput.json \
    --stats-in "$STATS_JSON" --trace-in "$SWEEP_TRACE_JSON" \
    --profile-in "$PROF_JSON" --out "$REPORT_A" > /dev/null
"$BUILD_DIR/src/cli/ssim" report --bench BENCH_throughput.json \
    --stats-in "$STATS_JSON" --trace-in "$SWEEP_TRACE_JSON" \
    --profile-in "$PROF_JSON" --out "$REPORT_B" > /dev/null
cmp "$REPORT_A" "$REPORT_B"
grep -q '<svg' "$REPORT_A"
grep -q 'Host time by span' "$REPORT_A"
grep -q '<td>live_run</td>' "$REPORT_A"
if grep -q '<script' "$REPORT_A"; then
    echo "ERROR: report contains a script tag" >&2
    exit 1
fi
if grep -Eq 'src="http|href="http' "$REPORT_A"; then
    echo "ERROR: report references external resources" >&2
    exit 1
fi

echo "== OK =="
