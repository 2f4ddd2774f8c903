#!/usr/bin/env python3
"""supersym end-to-end benchmark.

    python3 perfbench/run.py --workload paper_regen|taxonomy_cells|compile_sweep
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --regen-refs

Builds the program from source into .bench_build/ (Release), then runs
passes of the workload, each in a fresh driver process, for about S
seconds (at least one pass).  Every op's output is checked against the
references in perfbench/refs/.  Prints a table of every metric with its
unit and sample count, then, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
Exits 1 when any op failed, 2 when the build or a driver process failed.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import measure  # noqa: E402

WORKLOADS = ("paper_regen", "taxonomy_cells", "compile_sweep")
# paper_regen runs one pass per run, so it also launches the driver
# this many extra times to set up only, for a median setup_s.
SETUP_ONLY_LAUNCHES = 19


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def build(build_dir, flight_recorder):
    """Configure (once) and build the driver, ssim and the bench
    binaries.  Build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no supersym sources next to perfbench/ (expected %s)"
             % os.path.join(ROOT, "src"))
    fr = "OFF" if flight_recorder else "ON"
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release",
               "-DSSIM_DISABLE_FLIGHT_RECORDER=" + fr]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "bin")


def provenance(args, flight_recorder):
    """Where the numbers come from: commit, source digest, host."""
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": nproc(),
        "jobs": args.jobs,
        "seed": args.seed,
        "flight_recorder": ("compiled in" if flight_recorder else
                            "compiled out (SSIM_DISABLE_FLIGHT_RECORDER=ON)"),
    }


def scrubbed_env():
    """Our environment minus the program's SSIM_* knobs."""
    return {k: v for k, v in os.environ.items() if not k.startswith("SSIM_")}


class Driver:
    """Launches perfbench_driver, one fresh process per pass."""

    def __init__(self, bin_dir, build_dir, args):
        self.exe = os.path.join(bin_dir, "perfbench_driver")
        self.bin_dir = bin_dir
        self.work_dir = os.path.join(build_dir, "work")
        self.trace_dir = os.path.join(build_dir, "traces")
        self.args = args
        self.env = scrubbed_env()

    def launch(self, workload, extra=()):
        cmd = [self.exe, "--workload", workload, "--refs", self.args.refs,
               "--seed", str(self.args.seed), "--jobs", str(self.args.jobs),
               "--bin-dir", self.bin_dir, "--work-dir", self.work_dir]
        cmd += list(extra)
        t0 = time.monotonic_ns()
        r = subprocess.run(cmd + ["--t0-ns", str(t0)], capture_output=True,
                           text=True, env=self.env, cwd=ROOT)
        if r.returncode != 0:
            sys.stderr.write(r.stderr)
            fail("driver exited %d on %s" % (r.returncode, workload))
        if r.stderr:
            sys.stderr.write(r.stderr)
        return json.loads(r.stdout.strip().splitlines()[-1])

    def traced(self, workload, index):
        os.makedirs(self.trace_dir, exist_ok=True)
        path = os.path.join(self.trace_dir,
                            "%s-pass%d.json" % (workload, index))
        p = self.launch(workload, ["--trace-out", path])
        p["trace_file"] = path
        return p


def run_passes(driver, workload, seconds, traced):
    """Alternate untraced (and, for a traced run, traced) passes until
    another pass would overrun `seconds`; at least one of each kind."""
    kinds = ["plain", "traced"] if traced else ["plain"]
    plain, tpasses, durations = [], [], []
    start = time.monotonic()
    k = 0
    while True:
        kind = kinds[k % len(kinds)]
        t = time.monotonic()
        if kind == "plain":
            plain.append(driver.launch(workload))
        else:
            tpasses.append(driver.traced(workload, len(tpasses)))
        durations.append(time.monotonic() - t)
        k += 1
        if k < len(kinds):
            continue
        if time.monotonic() - start + max(durations) > seconds:
            return plain, tpasses


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return "%.6g" % value


def print_rows(rows):
    for name, value, unit, n in rows:
        print("  %-36s %14s %-9s %s" % (name, fmt(value), unit, n))


def failed_ops(passes):
    return [(p["seed"], op["id"], op["error"]) for p in passes
            for op in p["ops"] if "error" in op]


def report_end_to_end(workload, plain, setups, spec):
    sums = [measure.summarize_pass(p) for p in plain]
    n_pass = "%d passes" % len(sums)
    ops = sums[0]["ops"]
    attempted = sum(s["ops"] for s in sums)
    failed = sum(s["failed"] for s in sums)
    p90_note = ("%d ops/pass x %s" % (ops, n_pass)
                if sums[0]["op_ms_p90"] is not None else
                "%d ops/pass: fewer than %d beyond p90"
                % (ops, measure.MIN_BEYOND))
    metrics = {
        "wall_s": measure.median_of(sums, "wall_s"),
        "peak_rss_mb": measure.median_of(sums, "peak_rss_mb"),
        "setup_s": statistics.median(setups),
        "op_ms_p50": measure.median_of(sums, "op_ms_p50"),
    }
    rows = [
        ("wall_s", metrics["wall_s"], "s", "median of " + n_pass),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB",
         "median of " + n_pass + (" (max over children)"
                                  if workload == "paper_regen" else "")),
        ("setup_s", metrics["setup_s"], "s",
         "median of %d launches" % len(setups)),
        ("op_ms_p50", metrics["op_ms_p50"], "ms",
         "median of %s, %d ops/pass" % (n_pass, ops)),
        ("op_ms_p90", measure.median_of(sums, "op_ms_p90"), "ms", p90_note),
        ("fail_ratio", failed / attempted, "ratio",
         "%d failed / %d attempted ops" % (failed, attempted)),
    ]
    if workload == "taxonomy_cells":
        rows.append(("sim_minstr_per_s",
                     measure.median_of(sums, "sim_minstr_per_s"), "Minstr/s",
                     "median of " + n_pass))
    print("end-to-end metrics (untraced):")
    print_rows(rows)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {name: {"value": metrics[name], "unit": units[name]}
            for name in units}, attempted, failed


# Which end-to-end metric each layer should move, on which workload
# (README.md, "Per-layer metrics"); the first matching prefix wins.
PREDICTIONS = (
    ("bench.", "wall_s on paper_regen"),
    ("frontend.", "op_ms_p50 on compile_sweep"),
    ("opt.", "op_ms_p50, wall_s on compile_sweep"),
    ("sim.exec.", "sim_minstr_per_s on taxonomy_cells, wall_s on paper_regen"),
    ("sim.issue.ns_per_instr", "sim_minstr_per_s, op_ms_p50 on "
     "taxonomy_cells, wall_s on paper_regen"),
    ("sim.issue.", "none: simulated, must repeat exactly"),
    ("study.sweep.", "wall_s on taxonomy_cells, compile_sweep"),
    ("study.", "op_ms_p50 on taxonomy_cells, wall_s, peak_rss_mb on "
     "paper_regen"),
    ("support.trace.", "none: keeps the traced numbers honest"),
)


def prediction(name):
    return next(moves for prefix, moves in PREDICTIONS
                if name.startswith(prefix))


def report_per_layer(workload, plain, traced, spec):
    traces = [measure.span_totals(measure.load_trace_events(p["trace_file"]))
              for p in traced]
    m = measure.per_layer(plain, traced, traces)
    units = {x["name"]: x["unit"] for x in spec["per_layer"]}
    print("per-layer metrics (traced run: %d untraced + %d traced passes):"
          % (len(plain), len(traced)))
    if not all(p["flight_recorder"] for p in traced):
        print("  flight recorder compiled out (SSIM_DISABLE_FLIGHT_RECORDER"
              "=ON): no spans, so frontend.*, opt.* and study.self_ms "
              "read 0")
    if traced:
        print("  chrome trace: %s (%d spans)"
              % (traced[-1]["trace_file"], traced[-1].get("spans", 0)))
    if workload == "taxonomy_cells":
        plain_hits = sum(p["trace_cache_hits"] for p in plain)
        lookups = sum(p["trace_cache_lookups"] for p in plain)
        print("  study.trace_hit_ratio base: %d hits / %d lookups"
              % (plain_hits, lookups))
    m = {name: m.get(name, 0) for name in units}
    rows = [(name, m[name], units[name], "-> " + prediction(name))
            for name in units]
    print_rows(rows)
    ops = sum(t.get("perfbench.op", {}).get("count", 0) for t in traces)
    if ops:
        print("self time per op by span name (traced passes, %d ops):" % ops)
        names = sorted({n for t in traces for n in t})
        rows = [(n, sum(t.get(n, {}).get("self_us", 0.0) for t in traces)
                 / 1000.0 / ops, "ms",
                 "%d spans" % sum(t.get(n, {}).get("count", 0)
                                  for t in traces))
                for n in names]
        print_rows(sorted(rows, key=lambda r: -r[1]))
    return {name: {"value": m[name], "unit": units[name]} for name in units}


def regen_refs(driver):
    for workload in WORKLOADS:
        p = driver.launch(workload, ["--record"])
        print("recorded %s: %d ops, %d failed" % (workload, len(p["ops"]),
                                                  p["failed"]))
        if p["failed"]:
            for _, op_id, error in failed_ops([p]):
                print("  FAILED %s: %s" % (op_id, error))
            fail("references not recorded cleanly", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs", default=os.path.join(HERE, "refs"),
                    help="reference directory (default perfbench/refs)")
    ap.add_argument("--regen-refs", action="store_true",
                    help="rewrite the references from this build")
    ap.add_argument("--no-flight-recorder", action="store_true",
                    help="build with the flight recorder compiled out")
    args = ap.parse_args()
    if not args.regen_refs and not args.workload:
        ap.error("--workload is required")
    args.refs = os.path.abspath(args.refs)
    args.jobs = nproc()

    flight_recorder = not args.no_flight_recorder
    build_dir = os.path.join(ROOT, ".bench_build",
                             "release" if flight_recorder else "release-nofr")
    bin_dir = build(build_dir, flight_recorder)
    driver = Driver(bin_dir, build_dir, args)
    if args.regen_refs:
        regen_refs(driver)
        return 0
    spec = load_spec()

    prov = provenance(args, flight_recorder)
    setups = []
    if args.workload == "paper_regen":
        setups = [driver.launch(args.workload, ["--setup-only"])["setup_s"]
                  for _ in range(SETUP_ONLY_LAUNCHES)]
    # paper_regen has no in-process spans: its traced numbers are the
    # artifact times of ordinary passes.
    plain, traced = run_passes(driver, args.workload, args.seconds,
                               args.trace == 1 and
                               args.workload != "paper_regen")
    setups += [p["setup_s"] for p in plain + traced]
    prov["build_type"] = plain[0]["build_type"]

    print("perfbench %s  seed=%d  seconds=%g  trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("provenance: " + "  ".join("%s=%s" % kv for kv in prov.items()))
    metrics, attempted, failed = report_end_to_end(args.workload, plain,
                                                   setups, spec)
    if args.trace == 1:
        metrics = report_per_layer(args.workload, plain, traced, spec)
        attempted += sum(len(p["ops"]) for p in traced)
        failed += sum(p["failed"] for p in traced)
    for seed, op_id, error in failed_ops(plain + traced):
        print("FAILED op %s (seed %d): %s" % (op_id, seed, error))
    # Simulated statistics are deterministic: traced passes must agree.
    if not measure.simulated_counts_agree(traced):
        print("FAILED: simulated counts differ between traced passes")
        failed += 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
