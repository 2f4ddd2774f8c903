/**
 * @file
 * ssim — the command-line front door to the toolchain.
 *
 *   ssim run FILE.mt [options]     compile, simulate, report
 *   ssim ilp FILE.mt [options]     degree sweep (available parallelism)
 *   ssim profile FILE.mt [options] cycle profiler: per-instruction
 *                                  stall attribution mapped back to
 *                                  MT source lines (docs/profiling.md)
 *   ssim mix FILE.mt [options]     dynamic instruction-class mix
 *   ssim whatif FILE.mt [options]  analytic what-if queries from the
 *                                  dynamic dependence graph: oracle
 *                                  critical path / ILP bound, analytic
 *                                  cycles, top critical dependence
 *                                  edges (docs/whatif.md)
 *   ssim dump FILE.mt [options]    print the optimized, scheduled IR
 *   ssim suite [options]           run the built-in 8-benchmark suite
 *   ssim machines                  list predefined machine models
 *   ssim check-json FILE           validate a JSON file (exit status)
 *   ssim bench-check FILE [opts]   regression sentinel over a bench-v2
 *                                  trajectory: newest datapoint per
 *                                  label vs a rolling baseline window
 *                                  (Mann-Whitney U + relative-median
 *                                  threshold), or --compare A B for a
 *                                  head-to-head overhead budget
 *   ssim report [options]          self-contained HTML dashboard from
 *                                  the observability artifacts
 *                                  (bench trajectory, stats-json,
 *                                  trace-events, profile-json)
 *
 * Options:
 *   --machine NAME   base | ssN | spM | ssNxM | multititan | cray1 |
 *                    conflictsN          (default ss4)
 *   --level N        0..4 optimization level        (default 4)
 *   --unroll N       source-level unroll factor     (default 1)
 *   --careful        careful unrolling (reassociation + Heroic alias)
 *   --alias LEVEL    conservative|arrays|symbols|careful|heroic
 *   --temps N        expression temp registers      (default 16)
 *   --homes N        home registers                 (default 26)
 *   --jobs N         sweep worker threads for ilp/suite
 *                    (default: SSIM_JOBS, then all cores)
 *   --keep-going     ilp/suite: a failing sweep cell is reported in
 *                    place (error code + text) while the remaining
 *                    cells still run; exit stays nonzero
 *   --top N          whatif: critical dependence edges shown
 *                    (default 10)
 *   --slack          profile: per-line slack / "would speed up if"
 *                    listing from the dependence graph instead of
 *                    the stall listing
 *
 * Survivability (ilp/suite; see docs/robustness.md):
 *   --cell-timeout S   cooperative per-attempt watchdog: a cell whose
 *                      simulation exceeds S seconds traps with E0410
 *                      trap-deadline-exceeded (deterministic message)
 *                      and is quarantined (deadline overruns are
 *                      permanent: the deterministic simulator would
 *                      time out again)
 *   --cell-retries N   retry transient-classed cell failures
 *                      (E0409 injected faults, E0903 memory
 *                      pressure) up to N times with exponential
 *                      backoff before quarantining
 *   --journal FILE     checkpoint every completed cell to an
 *                      append-only JSONL journal (CRC-framed lines;
 *                      a fresh sweep truncates FILE)
 *   --resume FILE      resume from a journal: verify the sweep
 *                      identity header, skip every journaled cell,
 *                      run only what is missing, and keep appending
 *                      to FILE.  Final output is byte-identical to
 *                      an uninterrupted run
 *
 * Fault injection (chaos testing): set SSIM_FAULT to a seeded plan
 * "site:kind:rate:seed[,...]" (see support/faultinject.hh); every
 * injected fault surfaces as a classified cell error, never a crash.
 *
 * Observability (see docs/observability.md):
 *   --stats            print the full stats tree after the run
 *   --stats-json FILE  write the stats tree as JSON (run/suite)
 *   --trace-events FILE  write Chrome tracing JSON from the flight
 *                      recorder: host-time spans (compile phases,
 *                      live_run, cache waits, cells) on one track per
 *                      thread; `run` adds the simulated issue timeline
 *                      of its measured run as a second process
 *   --trace-limit N    run: cap recorded issue events (default 100000)
 *   --progress         ilp/suite: live sweep progress on stderr
 *                      (cells/s, ETA, cache hit rates, utilization)
 *
 * Profiling (profile; --profile* also on run; docs/profiling.md):
 *   --profile          run: print the annotated listing after the
 *                      report (profile implies it)
 *   --profile-json FILE  write the profile as JSON (schema profile-v1)
 *   --profile-top N    hot loops / diff rows shown   (default 10)
 *   --diff A B         profile: compare machines A and B instead of
 *                      listing --machine
 *
 * Sentinel (bench-check; docs/observability.md):
 *   --window N         baseline points per label     (default 8)
 *   --min-baseline N   fewer points -> "insufficient" (default 3)
 *   --alpha A          rank-test significance level  (default 0.05)
 *   --threshold PCT    median shift that matters, %  (default 5)
 *   --compare A B      head-to-head: pooled samples of label B vs
 *                      label A instead of the trajectory sentinel
 *   --budget PCT       allowed overhead for --compare (default 2)
 *   --soft             report, but always exit 0 (CI soft guards)
 *
 * Dashboard (report):
 *   --bench FILE       bench trajectory (BENCH_*.json)
 *   --stats-in FILE    a --stats-json document (run or suite)
 *   --trace-in FILE    a --trace-events document (host time by
 *                      span name)
 *   --profile-in FILE  a --profile-json document (schema profile-v1)
 *   --out FILE         output path              (default report.html)
 *   --title TEXT       page title
 *
 * Exit status (see docs/robustness.md):
 *   0  success
 *   1  compile or simulation error (malformed program, trap,
 *      failed sweep cell — even under --keep-going)
 *   2  usage error (bad flags, unknown machine, bad option value)
 */

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <memory>

#include "core/machine/models.hh"
#include "core/study/experiment.hh"
#include "core/study/journal.hh"
#include "core/study/progress.hh"
#include "core/study/sweep.hh"
#include "core/study/telemetry.hh"
#include "ir/printer.hh"
#include "sim/trap.hh"
#include "support/bench.hh"
#include "support/diag.hh"
#include "support/faultinject.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/report.hh"
#include "support/table.hh"
#include "support/trace.hh"

using namespace ilp;

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: ssim run|ilp|profile|mix|whatif|dump FILE.mt "
        "[options]\n"
        "       ssim suite [options]\n"
        "       ssim machines\n"
        "       ssim check-json FILE\n"
        "       ssim bench-check FILE [--window N --min-baseline N\n"
        "                              --alpha A --threshold PCT\n"
        "                              --compare A B --budget PCT\n"
        "                              --soft]\n"
        "       ssim report [--bench FILE --stats-in FILE\n"
        "                    --trace-in FILE --profile-in FILE\n"
        "                    --out FILE --title TEXT --profile-top N]\n"
        "options: --machine NAME --level 0..4 --unroll N --careful\n"
        "         --alias conservative|arrays|symbols|careful|heroic\n"
        "         --temps N --homes N --jobs N --keep-going\n"
        "         --top N --slack\n"
        "         --cell-timeout SECONDS --cell-retries N\n"
        "         --journal FILE --resume FILE\n"
        "         --stats --stats-json FILE --trace-events FILE\n"
        "         --trace-limit N --progress\n"
        "         --profile --profile-json FILE --profile-top N\n"
        "         --diff MACHINE_A MACHINE_B\n"
        "exit status: 0 ok, 1 compile/sim error, 2 usage error\n");
    std::exit(2);
}

/** A bad flag or option value: report and exit with the usage code. */
[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "ssim: %s\n", message.c_str());
    std::exit(2);
}

/**
 * Checked integer parsing for CLI values: the whole token must be a
 * decimal integer in [lo, hi].  Anything else names the offending
 * flag and value on stderr and exits nonzero — no silent atoi()
 * clamping of garbage to a default.
 */
long
parseIntOption(const char *flag, const std::string &value, long lo,
               long hi)
{
    char *end = nullptr;
    errno = 0;
    const long parsed = std::strtol(value.c_str(), &end, 10);
    if (value.empty() || end == value.c_str() || *end != '\0' ||
        errno == ERANGE || parsed < lo || parsed > hi) {
        std::fprintf(stderr,
                     "ssim: invalid value '%s' for %s (expected an "
                     "integer in [%ld, %ld])\n",
                     value.c_str(), flag, lo, hi);
        std::exit(2);
    }
    return parsed;
}

/**
 * Checked decimal parsing for CLI seconds values: the whole token
 * must be a finite non-negative decimal number.
 */
double
parseSecondsOption(const char *flag, const std::string &value)
{
    char *end = nullptr;
    errno = 0;
    const double parsed = std::strtod(value.c_str(), &end);
    if (value.empty() || end == value.c_str() || *end != '\0' ||
        errno == ERANGE || !(parsed >= 0.0) ||
        parsed > 86400.0) {
        std::fprintf(stderr,
                     "ssim: invalid value '%s' for %s (expected "
                     "seconds in [0, 86400])\n",
                     value.c_str(), flag);
        std::exit(2);
    }
    return parsed;
}

/**
 * Checked decimal parsing for CLI rate/percent values: the whole
 * token must be a finite decimal number in [lo, hi].
 */
double
parseDoubleOption(const char *flag, const std::string &value,
                  double lo, double hi)
{
    char *end = nullptr;
    errno = 0;
    const double parsed = std::strtod(value.c_str(), &end);
    if (value.empty() || end == value.c_str() || *end != '\0' ||
        errno == ERANGE || !(parsed >= lo) || !(parsed <= hi)) {
        std::fprintf(stderr,
                     "ssim: invalid value '%s' for %s (expected a "
                     "number in [%g, %g])\n",
                     value.c_str(), flag, lo, hi);
        std::exit(2);
    }
    return parsed;
}

/** Checked parse of the numeric part of a machine spec (ssN, spM,
 *  ssNxM, conflictsN). */
int
parseMachineNumber(const std::string &machine, const std::string &num)
{
    char *end = nullptr;
    errno = 0;
    const long parsed = std::strtol(num.c_str(), &end, 10);
    if (num.empty() || end == num.c_str() || *end != '\0' ||
        errno == ERANGE || parsed < 1 || parsed > 64) {
        usageError("bad machine spec '" + machine + "': '" + num +
                   "' is not an integer in [1, 64]");
    }
    return static_cast<int>(parsed);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "ssim: error[%s]: cannot open '%s'\n",
                     errCodeId(ErrCode::IoError), path.c_str());
        std::exit(1);
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

MachineConfig
parseMachine(const std::string &name)
{
    if (name == "base")
        return baseMachine();
    if (name == "multititan")
        return multiTitan();
    if (name == "cray1")
        return cray1();
    if (name.rfind("conflicts", 0) == 0)
        return superscalarWithClassConflicts(
            parseMachineNumber(name, name.substr(9)));
    if (name.rfind("ss", 0) == 0) {
        std::size_t x = name.find('x');
        if (x != std::string::npos) {
            int n = parseMachineNumber(name, name.substr(2, x - 2));
            int m = parseMachineNumber(name, name.substr(x + 1));
            return superpipelinedSuperscalar(n, m);
        }
        return idealSuperscalar(parseMachineNumber(name, name.substr(2)));
    }
    if (name.rfind("sp", 0) == 0)
        return superpipelined(parseMachineNumber(name, name.substr(2)));
    usageError("unknown machine '" + name +
               "' (try: base ss4 sp4 ss2x2 multititan cray1 "
               "conflicts4)");
}

AliasLevel
parseAlias(const std::string &name)
{
    if (name == "conservative")
        return AliasLevel::Conservative;
    if (name == "arrays")
        return AliasLevel::Arrays;
    if (name == "symbols")
        return AliasLevel::Symbols;
    if (name == "careful")
        return AliasLevel::Careful;
    if (name == "heroic")
        return AliasLevel::Heroic;
    usageError("unknown alias level '" + name + "'");
}

struct Cli
{
    std::string command;
    std::string file;
    MachineConfig machine = idealSuperscalar(4);
    CompileOptions options;

    bool stats = false;
    std::string statsJsonPath;
    std::string traceEventsPath;
    std::size_t traceLimit = 100000;
    /** Live sweep progress on stderr. */
    bool progress = false;
    /** Sweep workers for ilp/suite; 0 = SSIM_JOBS, then all cores. */
    int jobs = 0;
    /** Fault-isolated sweeps: report failing cells, run the rest. */
    bool keepGoing = false;

    /** Survivability policy for ilp/suite sweeps (docs/robustness.md):
     *  per-attempt watchdog budget (0 = off) and transient-error
     *  retry count. */
    double cellTimeout = 0.0;
    int cellRetries = 0;
    /** Crash-safe checkpointing: journal every completed cell here
     *  (fresh file), or resume from (and keep appending to) an
     *  existing journal. */
    std::string journalPath;
    std::string resumePath;

    CellPolicy
    cellPolicy() const
    {
        CellPolicy p;
        p.timeoutSeconds = cellTimeout;
        p.maxRetries = cellRetries;
        p.keepGoing = keepGoing;
        return p;
    }

    /** Cycle-profiler flags (docs/profiling.md). */
    bool profile = false;
    std::string profileJsonPath;
    std::size_t profileTop = 10;
    /** `ssim profile --diff A B`: machines to compare. */
    bool diffSet = false;
    MachineConfig diffA;
    MachineConfig diffB;

    /** `ssim whatif --top N`: critical edges shown. */
    std::size_t whatifTop = 10;
    /** `ssim profile --slack`: per-line slack listing. */
    bool slack = false;

    /** `ssim bench-check` knobs (docs/observability.md). */
    bench::SentinelConfig sentinel;
    bool compareSet = false;
    std::string compareA;
    std::string compareB;
    double benchBudget = 2.0; ///< --compare overhead budget, percent
    /** Report the verdict but always exit 0 (CI soft guards). */
    bool benchSoft = false;

    /** `ssim report` inputs and output. */
    std::string reportBenchPath;
    std::string reportStatsPath;
    std::string reportTracePath;
    std::string reportProfilePath;
    std::string reportOutPath = "report.html";
    std::string reportTitle = "supersym perf report";

    bool
    wantProfile() const
    {
        return profile || !profileJsonPath.empty();
    }

    /**
     * Telemetry derived from the flags above.  --trace-events never
     * forces stats: spans come from the flight recorder, so a traced
     * run takes the same timing path as an untraced one.  Only `run`
     * (`sweep` false) adds the issue timeline.
     */
    RunTelemetryOptions
    telemetry(bool sweep = false) const
    {
        RunTelemetryOptions t;
        t.collectStats = stats || !statsJsonPath.empty();
        if (!sweep && !traceEventsPath.empty())
            t.timelineLimit = traceLimit;
        t.collectProfile = wantProfile();
        return t;
    }
};

Cli
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage();
    Cli cli;
    cli.command = argv[1];
    cli.options.level = OptLevel::RegAlloc;
    cli.options.alias = AliasLevel::Arrays;

    int i = 2;
    if (cli.command == "run" || cli.command == "ilp" ||
        cli.command == "profile" || cli.command == "mix" ||
        cli.command == "whatif" || cli.command == "dump" ||
        cli.command == "check-json" || cli.command == "bench-check") {
        if (argc < 3)
            usage();
        cli.file = argv[2];
        i = 3;
    } else if (cli.command != "suite" && cli.command != "machines" &&
               cli.command != "report") {
        usage();
    }

    for (; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--machine")
            cli.machine = parseMachine(next());
        else if (arg == "--level")
            cli.options.level = static_cast<OptLevel>(
                parseIntOption("--level", next(), 0, 4));
        else if (arg == "--unroll")
            cli.options.unroll.factor = static_cast<int>(
                parseIntOption("--unroll", next(), 1, 64));
        else if (arg == "--careful") {
            cli.options.unroll.careful = true;
            cli.options.alias = AliasLevel::Heroic;
        } else if (arg == "--alias")
            cli.options.alias = parseAlias(next());
        else if (arg == "--temps")
            cli.options.layout.numTemp = static_cast<std::uint32_t>(
                parseIntOption("--temps", next(), 2, 4096));
        else if (arg == "--homes")
            cli.options.layout.numHome = static_cast<std::uint32_t>(
                parseIntOption("--homes", next(), 0, 4096));
        else if (arg == "--jobs")
            cli.jobs = static_cast<int>(
                parseIntOption("--jobs", next(), 1, 4096));
        else if (arg == "--keep-going")
            cli.keepGoing = true;
        else if (arg == "--cell-timeout")
            cli.cellTimeout =
                parseSecondsOption("--cell-timeout", next());
        else if (arg == "--cell-retries")
            cli.cellRetries = static_cast<int>(
                parseIntOption("--cell-retries", next(), 0, 1000));
        else if (arg == "--journal")
            cli.journalPath = next();
        else if (arg == "--resume")
            cli.resumePath = next();
        else if (arg == "--top")
            cli.whatifTop = static_cast<std::size_t>(
                parseIntOption("--top", next(), 1, 100000));
        else if (arg == "--slack")
            cli.slack = true;
        else if (arg == "--profile")
            cli.profile = true;
        else if (arg == "--profile-json")
            cli.profileJsonPath = next();
        else if (arg == "--profile-top")
            cli.profileTop = static_cast<std::size_t>(parseIntOption(
                "--profile-top", next(), 1, 100000));
        else if (arg == "--diff") {
            cli.diffA = parseMachine(next());
            cli.diffB = parseMachine(next());
            cli.diffSet = true;
        }
        else if (arg == "--stats")
            cli.stats = true;
        else if (arg == "--stats-json")
            cli.statsJsonPath = next();
        else if (arg == "--trace-events")
            cli.traceEventsPath = next();
        else if (arg == "--progress")
            cli.progress = true;
        else if (arg == "--trace-limit")
            cli.traceLimit = static_cast<std::size_t>(parseIntOption(
                "--trace-limit", next(), 0, LONG_MAX));
        else if (arg == "--window")
            cli.sentinel.window = static_cast<std::size_t>(
                parseIntOption("--window", next(), 1, 100000));
        else if (arg == "--min-baseline")
            cli.sentinel.minBaseline = static_cast<std::size_t>(
                parseIntOption("--min-baseline", next(), 1, 100000));
        else if (arg == "--alpha")
            cli.sentinel.alpha =
                parseDoubleOption("--alpha", next(), 0.0, 1.0);
        else if (arg == "--threshold")
            cli.sentinel.threshold =
                parseDoubleOption("--threshold", next(), 0.0, 1000.0) /
                100.0;
        else if (arg == "--compare") {
            cli.compareA = next();
            cli.compareB = next();
            cli.compareSet = true;
        }
        else if (arg == "--budget")
            cli.benchBudget =
                parseDoubleOption("--budget", next(), 0.0, 1000.0);
        else if (arg == "--soft")
            cli.benchSoft = true;
        else if (arg == "--bench")
            cli.reportBenchPath = next();
        else if (arg == "--stats-in")
            cli.reportStatsPath = next();
        else if (arg == "--trace-in")
            cli.reportTracePath = next();
        else if (arg == "--profile-in")
            cli.reportProfilePath = next();
        else if (arg == "--out")
            cli.reportOutPath = next();
        else if (arg == "--title")
            cli.reportTitle = next();
        else
            usage();
    }
    if (!cli.resumePath.empty() && !cli.journalPath.empty() &&
        cli.resumePath != cli.journalPath)
        usageError("--resume and --journal name different files; "
                   "--resume already appends to the journal it "
                   "resumes from");
    return cli;
}

/** Report a compile-or-simulation failure; returns exit code 1. */
int
fail(const std::string &message)
{
    std::fprintf(stderr, "ssim: %s\n", message.c_str());
    return 1;
}

/** Recursive "path  value" rendering of a stats JSON tree. */
void
printStatsTree(const Json &node, const std::string &prefix)
{
    for (const auto &[key, value] : node.asObject()) {
        std::string path = prefix.empty() ? key : prefix + "." + key;
        if (value.isObject())
            printStatsTree(value, path);
        else
            std::printf("%-48s %s\n", path.c_str(),
                        value.dump().c_str());
    }
}

/** The stats document written by --stats-json: run context plus the
 *  full stats tree. */
Json
statsDocument(const Cli &cli, const std::string &program,
              const RunOutcome &out)
{
    Json doc = Json::object();
    doc.set("meta", documentMeta(cli.machine));
    doc.set("program", Json(program));
    doc.set("machine", Json(cli.machine.name));
    doc.set("opt_level", Json(optLevelName(cli.options.level)));
    doc.set("stats", out.stats);
    return doc;
}

int
cmdRun(const Cli &cli)
{
    Workload w{cli.file, "user program", readFile(cli.file), 0, false,
               1};
    RunTelemetryOptions telemetry = cli.telemetry();
    const bool traced = !cli.traceEventsPath.empty();
    if (traced)
        trace::Recorder::instance().start();

    // Checked compiles: a malformed program reports every diagnostic
    // (file:line:col, stable code) and exits 1 — no fatal() abort.
    Result<Module> base_mod = compileWorkloadChecked(
        w.source, baseMachine(), cli.options, nullptr, cli.file);
    if (!base_mod.ok())
        return fail(base_mod.formatErrors());
    CompileTelemetry compile;
    CompileTelemetry *record =
        telemetry.collectStats ? &compile : nullptr;
    Result<Module> mod = compileWorkloadChecked(
        w.source, cli.machine, cli.options, record, cli.file);
    if (!mod.ok())
        return fail(mod.formatErrors());

    // An injected fault (SSIM_FAULT) throws out of a run; report it
    // like any other simulation error instead of aborting.
    RunOutcome base, out;
    try {
        base = runOnMachine(base_mod.value(), baseMachine());
        if (!base.trapped())
            out = runOnMachine(mod.value(), cli.machine, telemetry,
                               record);
    } catch (...) {
        return fail(currentCellError().message);
    }
    const trace::Recording recording =
        traced ? trace::Recorder::instance().stop() : trace::Recording{};
    if (base.trapped())
        return fail(base.trap.format());
    if (out.trapped())
        return fail(out.trap.format());
    std::printf("program      : %s\n", cli.file.c_str());
    std::printf("machine      : %s\n", cli.machine.name.c_str());
    std::printf("opt level    : %s\n",
                optLevelName(cli.options.level));
    std::printf("checksum     : %lld\n",
                static_cast<long long>(out.checksum));
    std::printf("instructions : %llu\n",
                static_cast<unsigned long long>(out.instructions));
    std::printf("base cycles  : %.1f\n", out.cycles);
    std::printf("instr/cycle  : %.3f\n", out.ipc());
    std::printf("speedup      : %.3f over the base machine\n",
                base.cycles / out.cycles);
    if (cli.stats) {
        std::printf("\n");
        printStatsTree(out.stats, "");
    }
    if (!cli.statsJsonPath.empty())
        writeJsonFile(cli.statsJsonPath,
                      statsDocument(cli, cli.file, out));
    if (traced)
        writeJsonFile(cli.traceEventsPath,
                      buildSweepTraceEvents(recording, cli.machine, &out));
    if (cli.wantProfile()) {
        prof::Profile p = prof::buildProfile(
            cli.file, cli.machine,
            prof::CodeMap::build(mod.value()), out);
        if (cli.profile)
            std::printf("\n%s",
                        prof::renderAnnotatedListing(p, w.source,
                                                     cli.profileTop)
                            .c_str());
        if (!cli.profileJsonPath.empty())
            writeJsonFile(cli.profileJsonPath, prof::toJson(p));
    }
    return 0;
}

int
cmdProfile(const Cli &cli)
{
    Workload w{cli.file, "user program", readFile(cli.file), 0, false,
               1};
    Study study(cli.jobs);

    try {
        if (cli.diffSet) {
            prof::Profile a =
                study.profiledRun(w, cli.diffA, cli.options);
            prof::Profile b =
                study.profiledRun(w, cli.diffB, cli.options);
            std::printf(
                "%s", prof::renderDiff(a, b, cli.profileTop).c_str());
            if (!cli.profileJsonPath.empty()) {
                Json doc = Json::object();
                doc.set("a", prof::toJson(a));
                doc.set("b", prof::toJson(b));
                writeJsonFile(cli.profileJsonPath, doc);
            }
            return 0;
        }

        prof::Profile p =
            study.profiledRun(w, cli.machine, cli.options);
        const std::string mismatch = prof::checkReconciliation(p);
        if (!mismatch.empty())
            return fail("profile does not reconcile: " + mismatch);
        if (cli.slack) {
            // Per-line slack from the dependence graph instead of
            // the stall listing: which lines sit on the oracle
            // critical path ("would speed up if"), which have room.
            const DepGraph graph =
                study.dependenceGraph(w, cli.machine, cli.options);
            SlackReport slack = graph.slack(cli.machine, cli.profileTop);
            std::printf("%s",
                        whatif::renderSlackListing(p, slack, w.source,
                                                   cli.profileTop)
                            .c_str());
            if (!cli.profileJsonPath.empty())
                writeJsonFile(cli.profileJsonPath, prof::toJson(p));
            return 0;
        }
        std::printf("%s", prof::renderAnnotatedListing(
                              p, w.source, cli.profileTop)
                              .c_str());
        if (!cli.profileJsonPath.empty())
            writeJsonFile(cli.profileJsonPath, prof::toJson(p));
        return 0;
    } catch (const DiagException &e) {
        return fail(formatDiags(e.diags()));
    } catch (const TrapException &e) {
        return fail(e.trap().format());
    }
}

/**
 * Sweep-level observability shared by `ilp` and `suite`: a flight-
 * recorder session behind --trace-events and a live ProgressReporter
 * behind --progress.  Construct before the sweep; call finish() after
 * the barrier (all workers joined).  An aborted sweep (non-keep-going
 * failure) skips finish() and writes nothing, matching the other
 * output files.
 */
class SweepObservability
{
  public:
    SweepObservability(const Cli &cli, const Study &study,
                       std::size_t totalCells)
        : cli_(cli)
    {
        if (!cli_.traceEventsPath.empty())
            trace::Recorder::instance().start();
        if (cli_.progress) {
            ProgressReporter::Config pc;
            pc.totalCells = totalCells;
            pc.jobs = study.runner().jobs();
            pc.compileCache = &study.compileCache();
            progress_ = std::make_unique<ProgressReporter>(pc);
        }
    }

    void
    finish()
    {
        if (progress_) {
            progress_->finish();
            progress_.reset();
        }
        if (!cli_.traceEventsPath.empty()) {
            writeJsonFile(
                cli_.traceEventsPath,
                buildSweepTraceEvents(trace::Recorder::instance().stop(),
                                      cli_.machine));
        }
    }

  private:
    const Cli &cli_;
    std::unique_ptr<ProgressReporter> progress_;
};

/**
 * The crash-safe checkpoint state of one ilp/suite sweep: an
 * append-only journal writer plus whatever a --resume recovered.
 * Cells found in the journal are "skipped" (their values replay from
 * disk); the rest run and append as they complete.
 */
struct SweepJournal
{
    journal::Writer writer;
    /** Journaled cell values recovered by --resume, by cell key. */
    std::map<std::string, Json> resumed;
    /** Journal lines dropped for CRC/parse failure on load. */
    std::size_t corrupt = 0;
    bool resuming = false;

    /**
     * Open the journal named by --journal/--resume (no-op when
     * neither is given).  A fresh --journal truncates; --resume
     * loads existing cells first and verifies the sweep-identity
     * header matches `identity` byte-for-byte — a mismatched journal
     * is an error, never a silently poisoned resume.  @return false
     * with `error` filled on identity mismatch or I/O failure.
     */
    bool
    setup(const Cli &cli, const Json &identity, std::string *error)
    {
        const std::string &path =
            cli.resumePath.empty() ? cli.journalPath : cli.resumePath;
        if (path.empty())
            return true;
        bool need_header = true;
        if (!cli.resumePath.empty()) {
            resuming = true;
            journal::LoadResult lr = journal::load(path);
            // A missing journal is a legal resume (first run of a
            // retry loop): everything runs, the journal is created.
            if (lr.ok) {
                if (!lr.identity.isNull() &&
                    lr.identity.dump() != identity.dump()) {
                    *error = "journal '" + path +
                             "' was written by a different sweep "
                             "(command, program, options, or machine "
                             "changed); refusing to resume";
                    return false;
                }
                need_header = lr.identity.isNull();
                resumed = std::move(lr.cells);
                corrupt = lr.corrupt;
                if (corrupt > 0)
                    SS_WARN("journal '", path, "': dropped ", corrupt,
                            " corrupt record(s); those cells re-run");
            }
        } else {
            // A fresh --journal replaces any stale file so the
            // header that follows is the file's single identity.
            std::remove(path.c_str());
        }
        if (!writer.open(path, error))
            return false;
        if (need_header)
            writer.writeHeader(identity);
        return true;
    }
};

/** Survivability accounting for the sweep's stats-json meta block:
 *  cell totals plus (when resuming) the skipped/replayed split. */
template <typename T>
Json
sweepCellsMeta(const std::vector<CellOutcome<T>> &cells,
               const HardeningTotals &totals)
{
    std::uint64_t failed = 0;
    for (const CellOutcome<T> &c : cells)
        if (!c.ok())
            ++failed;
    Json m = Json::object();
    m.set("total", Json(static_cast<std::uint64_t>(cells.size())));
    m.set("failed", Json(failed));
    m.set("retries", Json(totals.retries));
    m.set("timeouts", Json(totals.timeouts));
    m.set("quarantined", Json(totals.quarantined));
    return m;
}

Json
sweepResumeMeta(std::size_t skipped, std::size_t replayed)
{
    Json r = Json::object();
    r.set("skipped", Json(static_cast<std::uint64_t>(skipped)));
    r.set("replayed", Json(static_cast<std::uint64_t>(replayed)));
    return r;
}

int
cmdIlp(const Cli &cli)
{
    Workload w{cli.file, "user program", readFile(cli.file), 0, false,
               1};
    // One cell per degree; the study's compile cache shares the base
    // compile, and its future-based memos keep the sweep race-free.
    Study study(cli.jobs);

    constexpr std::size_t kDegrees = 8;
    // Stable cell keys (compile key + machine-spec hash): pure
    // functions of the sweep spec, so a resumed process derives the
    // same keys and matches them against the journal.
    std::vector<std::string> keys(kDegrees);
    for (std::size_t i = 0; i < kDegrees; ++i) {
        const MachineConfig m = idealSuperscalar(static_cast<int>(i) + 1);
        keys[i] = CompileCache::key(w, m, cli.options) + "|mh" +
                  std::to_string(m.specHash());
    }
    Json identity = Json::object();
    identity.set("command", Json("ilp"));
    identity.set("program", Json(cli.file));
    identity.set("source_crc",
                 Json(static_cast<std::uint64_t>(
                     journal::crc32(w.source))));
    identity.set("fingerprint",
                 Json(Study::fingerprint(w, cli.options)));
    identity.set("cells", Json(static_cast<std::uint64_t>(kDegrees)));
    SweepJournal sj;
    std::string jerr;
    if (!sj.setup(cli, identity, &jerr))
        return fail(jerr);

    std::vector<CellOutcome<double>> cells(kDegrees);
    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < kDegrees; ++i) {
        auto it = sj.resumed.find(keys[i]);
        const Json *v = it != sj.resumed.end()
                            ? it->second.find("speedup")
                            : nullptr;
        if (v && v->isNumber())
            cells[i].value = v->asNumber();
        else
            todo.push_back(i);
    }
    const std::size_t ran = todo.size();

    auto cell = [&](std::size_t j) {
        const std::size_t i = todo[j];
        const double speedup = study.speedup(
            w, idealSuperscalar(static_cast<int>(i) + 1), cli.options);
        // Checkpoint at the success point, on the worker thread: a
        // kill after this line costs nothing on resume.
        if (sj.writer.isOpen()) {
            Json value = Json::object();
            value.set("speedup", Json(speedup));
            sj.writer.writeCell(keys[i], value);
        }
        return speedup;
    };

    SweepObservability obs(cli, study, todo.size());
    // Transient failures retry and permanent ones are quarantined.
    // Under --keep-going a failing degree is recorded as a structured
    // CellError while the other degrees still run; without it, the
    // first quarantined cell rethrows here.
    HardenedSweep<double> hs;
    try {
        hs = study.runner().mapHardened<double>(todo.size(),
                                                cli.cellPolicy(), cell);
    } catch (...) {
        return fail(currentCellError().message);
    }
    for (std::size_t j = 0; j < todo.size(); ++j)
        cells[todo[j]] = hs.cells[j];
    obs.finish();
    sj.writer.close();

    Table t("Available parallelism (ideal superscalar sweep):");
    t.setHeader({"degree", "speedup"});
    for (int d = 1; d <= 8; ++d) {
        const CellOutcome<double> &c =
            cells[static_cast<std::size_t>(d - 1)];
        t.row().cell(static_cast<long long>(d));
        if (c.ok())
            t.cell(c.value, 3);
        else
            t.cell("error[" + std::string(errCodeId(c.error.code)) +
                   "]");
    }
    t.print();

    if (!cli.statsJsonPath.empty()) {
        Json degrees = Json::array();
        for (int d = 1; d <= 8; ++d) {
            const CellOutcome<double> &c =
                cells[static_cast<std::size_t>(d - 1)];
            Json entry = Json::object();
            entry.set("degree", d);
            if (c.ok()) {
                entry.set("speedup", c.value);
            } else {
                Json err = Json::object();
                err.set("code",
                        Json(std::string(errCodeId(c.error.code))));
                err.set("message", Json(c.error.message));
                entry.set("error", std::move(err));
            }
            degrees.push(std::move(entry));
        }
        Json doc = Json::object();
        Json meta = documentMeta(cli.machine);
        meta.set("cells", sweepCellsMeta(cells, hs.totals));
        if (sj.resuming)
            meta.set("resume", sweepResumeMeta(cells.size() - ran, ran));
        doc.set("meta", std::move(meta));
        doc.set("program", Json(cli.file));
        doc.set("degrees", std::move(degrees));
        writeJsonFile(cli.statsJsonPath, doc);
    }

    int status = 0;
    for (int d = 1; d <= 8; ++d) {
        const CellOutcome<double> &c =
            cells[static_cast<std::size_t>(d - 1)];
        if (!c.ok())
            status = fail("degree " + std::to_string(d) + ": " +
                          c.error.message);
    }
    return status;
}

int
cmdWhatIf(const Cli &cli)
{
    Workload w{cli.file, "user program", readFile(cli.file), 0, false,
               1};
    Study study(cli.jobs);
    try {
        whatif::Report r = whatif::analyze(
            study, w, cli.machine, cli.options, cli.whatifTop);
        std::printf("%s", whatif::render(r).c_str());
        if (!cli.statsJsonPath.empty())
            writeJsonFile(cli.statsJsonPath, whatif::toJson(r));
        return 0;
    } catch (const DiagException &e) {
        return fail(formatDiags(e.diags()));
    } catch (const TrapException &e) {
        return fail(e.trap().format());
    }
}

int
cmdMix(const Cli &cli)
{
    Workload w{cli.file, "user program", readFile(cli.file), 0, false,
               1};
    ClassFrequencies f = profileWorkload(w, cli.options);
    Table t("Dynamic instruction mix:");
    t.setHeader({"class", "fraction"});
    for (std::size_t c = 0; c < kNumInstrClasses; ++c) {
        if (f[c] > 0.0)
            t.row()
                .cell(std::string(
                    instrClassName(static_cast<InstrClass>(c))))
                .cell(f[c], 4);
    }
    t.print();
    std::printf("\navg degree of superpipelining: %.2f (MultiTitan), "
                "%.2f (CRAY-1)\n",
                averageDegreeOfSuperpipelining(f,
                                               multiTitan().latency),
                averageDegreeOfSuperpipelining(f, cray1().latency));
    return 0;
}

int
cmdDump(const Cli &cli)
{
    Result<Module> m = compileWorkloadChecked(
        readFile(cli.file), cli.machine, cli.options, nullptr,
        cli.file);
    if (!m.ok())
        return fail(m.formatErrors());
    std::printf("%s", toString(m.value()).c_str());
    return 0;
}

int
cmdSuite(const Cli &cli)
{
    Table t("Built-in suite on " + cli.machine.name + ":");
    t.setHeader({"benchmark", "instructions", "cycles", "instr/cycle",
                 "speedup"});
    Json benchmarks = Json::array();
    const bool want_json = !cli.statsJsonPath.empty();
    RunTelemetryOptions telemetry = cli.telemetry(/*sweep=*/true);

    // One cell per benchmark (base run + machine run); table rows,
    // stats dumps, and the JSON document are assembled serially from
    // the index-ordered results after the barrier, so the output is
    // byte-identical at any --jobs.  Runs go through the study so
    // compiles are shared across cells.
    struct SuiteCell
    {
        RunOutcome base;
        RunOutcome out;
    };
    const auto &suite = allWorkloads();
    Study study(cli.jobs);

    // Cell keys and journal identity, as in cmdIlp.  The identity
    // carries the stats flag because journaled cell records only
    // contain a stats tree when the sweep collected one — resuming
    // with a different telemetry shape must not mix records.
    std::vector<std::string> keys(suite.size());
    auto cellOptions = [&](std::size_t i) {
        CompileOptions o = cli.options;
        o.unroll.factor =
            std::max(o.unroll.factor, suite[i].defaultUnroll);
        return o;
    };
    for (std::size_t i = 0; i < suite.size(); ++i)
        keys[i] = CompileCache::key(suite[i], cli.machine,
                                    cellOptions(i)) +
                  "|mh" + std::to_string(cli.machine.specHash());
    Json identity = Json::object();
    identity.set("command", Json("suite"));
    identity.set("machine", Json(cli.machine.name));
    identity.set("machine_hash",
                 Json(std::to_string(cli.machine.specHash())));
    identity.set("fingerprint",
                 Json(Study::fingerprint(suite[0], cli.options)));
    identity.set("stats", Json(telemetry.collectStats));
    identity.set("cells",
                 Json(static_cast<std::uint64_t>(suite.size())));
    SweepJournal sj;
    std::string jerr;
    if (!sj.setup(cli, identity, &jerr))
        return fail(jerr);

    std::vector<CellOutcome<SuiteCell>> cells(suite.size());
    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        auto it = sj.resumed.find(keys[i]);
        if (it == sj.resumed.end()) {
            todo.push_back(i);
            continue;
        }
        const Json &v = it->second;
        const Json *instr = v.find("instructions");
        const Json *cyc = v.find("cycles");
        const Json *base = v.find("base_cycles");
        const Json *stats = v.find("stats");
        if (!instr || !instr->isNumber() || !cyc ||
            !cyc->isNumber() || !base || !base->isNumber() ||
            (telemetry.collectStats && !stats)) {
            todo.push_back(i); // malformed record: re-run the cell
            continue;
        }
        SuiteCell &c = cells[i].value;
        c.out.instructions =
            static_cast<std::uint64_t>(instr->asNumber());
        c.out.cycles = cyc->asNumber();
        c.base.cycles = base->asNumber();
        if (stats)
            c.out.stats = *stats;
    }
    const std::size_t ran = todo.size();

    auto cell = [&](std::size_t j) {
        const std::size_t i = todo[j];
        const Workload &w = suite[i];
        SuiteCell c;
        c.base = study.timedRun(w, baseMachine(), cellOptions(i));
        c.out = study.timedRun(w, cli.machine, cellOptions(i),
                               telemetry);
        if (c.base.trapped())
            throw TrapException(c.base.trap);
        if (c.out.trapped())
            throw TrapException(c.out.trap);
        if (sj.writer.isOpen()) {
            Json value = Json::object();
            value.set("instructions", Json(c.out.instructions));
            value.set("cycles", Json(c.out.cycles));
            value.set("base_cycles", Json(c.base.cycles));
            if (telemetry.collectStats)
                value.set("stats", c.out.stats);
            sj.writer.writeCell(keys[i], value);
        }
        return c;
    };

    SweepObservability obs(cli, study, todo.size());
    HardenedSweep<SuiteCell> hs;
    try {
        hs = study.runner().mapHardened<SuiteCell>(
            todo.size(), cli.cellPolicy(), cell);
    } catch (...) {
        return fail(currentCellError().message);
    }
    for (std::size_t j = 0; j < todo.size(); ++j)
        cells[todo[j]] = std::move(hs.cells[j]);
    obs.finish();
    sj.writer.close();

    int status = 0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const Workload &w = suite[i];
        const CellOutcome<SuiteCell> &c = cells[i];
        if (!c.ok()) {
            t.row()
                .cell(w.name)
                .cell("error[" +
                      std::string(errCodeId(c.error.code)) + "]")
                .cell("-")
                .cell("-")
                .cell("-");
            status = fail(w.name + ": " + c.error.message);
            if (want_json) {
                Json entry = Json::object();
                entry.set("name", Json(w.name));
                Json err = Json::object();
                err.set("code",
                        Json(std::string(errCodeId(c.error.code))));
                err.set("message", Json(c.error.message));
                entry.set("error", std::move(err));
                benchmarks.push(std::move(entry));
            }
            continue;
        }
        const RunOutcome &out = c.value.out;
        t.row()
            .cell(w.name)
            .cell(static_cast<long long>(out.instructions))
            .cell(out.cycles, 0)
            .cell(out.ipc(), 2)
            .cell(c.value.base.cycles / out.cycles, 2);
        if (cli.stats) {
            std::printf("--- %s ---\n", w.name.c_str());
            printStatsTree(out.stats, "");
        }
        if (want_json) {
            Json entry = Json::object();
            entry.set("name", Json(w.name));
            entry.set("stats", out.stats);
            benchmarks.push(std::move(entry));
        }
    }
    t.print();
    if (want_json) {
        Json doc = Json::object();
        Json meta = documentMeta(cli.machine);
        meta.set("cells", sweepCellsMeta(cells, hs.totals));
        if (sj.resuming)
            meta.set("resume",
                     sweepResumeMeta(cells.size() - ran, ran));
        doc.set("meta", std::move(meta));
        doc.set("machine", Json(cli.machine.name));
        doc.set("opt_level", Json(optLevelName(cli.options.level)));
        doc.set("benchmarks", std::move(benchmarks));
        writeJsonFile(cli.statsJsonPath, doc);
    }
    return status;
}

int
cmdCheckJson(const Cli &cli)
{
    Json doc;
    std::string error;
    if (!Json::tryParse(readFile(cli.file), doc, &error))
        return fail(cli.file + ": " + error);
    std::printf("%s: valid JSON (%s, %zu top-level %s)\n",
                cli.file.c_str(),
                doc.isObject()  ? "object"
                : doc.isArray() ? "array"
                                : "value",
                doc.size(),
                doc.isObject() ? "keys" : "elements");
    return 0;
}

int
cmdBenchCheck(const Cli &cli)
{
    // Soft mode is the CI guard contract inherited from the old awk
    // threshold: report everything, never fail the build — including
    // on a missing or short trajectory (first run of a fresh repo).
    auto soften = [&](const std::string &message) {
        std::fprintf(stderr, "ssim: bench-check (soft): %s\n",
                     message.c_str());
        return 0;
    };
    bench::Trajectory traj;
    std::string error;
    if (!bench::loadTrajectory(cli.file, &traj, &error))
        return cli.benchSoft ? soften(error) : fail(error);

    if (cli.compareSet) {
        bench::CompareResult r;
        if (!bench::compareLabels(traj, cli.compareA, cli.compareB,
                                  cli.benchBudget, &r, &error))
            return cli.benchSoft ? soften(error) : fail(error);
        std::printf("%s",
                    bench::renderCompare(r, cli.benchBudget).c_str());
        if (r.withinBudget)
            return 0;
        return cli.benchSoft
                   ? soften("'" + cli.compareB + "' exceeds the " +
                            cli.compareA + " budget")
                   : 1;
    }

    const std::vector<bench::LabelVerdict> rows =
        bench::sentinelCheck(traj, cli.sentinel);
    if (rows.empty())
        return cli.benchSoft
                   ? soften("no benchmark datapoints in '" + cli.file +
                            "'")
                   : fail("no benchmark datapoints in '" + cli.file +
                          "'");
    std::printf("%s",
                bench::renderVerdictTable(rows, cli.sentinel).c_str());
    if (!bench::anyRegression(rows))
        return 0;
    return cli.benchSoft ? soften("regression detected") : 1;
}

int
cmdReport(const Cli &cli)
{
    report::ReportInputs inputs;
    inputs.sentinel = cli.sentinel;
    inputs.profileTop = cli.profileTop;
    inputs.title = cli.reportTitle;

    bench::Trajectory traj;
    std::string error;
    if (!cli.reportBenchPath.empty()) {
        if (!bench::loadTrajectory(cli.reportBenchPath, &traj, &error))
            return fail(error);
        inputs.bench = &traj;
    }
    auto loadDoc = [&](const std::string &path, Json &doc) {
        if (!Json::tryParse(readFile(path), doc, &error)) {
            std::fprintf(stderr, "ssim: %s: %s\n", path.c_str(),
                         error.c_str());
            std::exit(1);
        }
    };
    Json stats;
    Json traceDoc;
    Json profileDoc;
    if (!cli.reportStatsPath.empty()) {
        loadDoc(cli.reportStatsPath, stats);
        inputs.stats = &stats;
    }
    if (!cli.reportTracePath.empty()) {
        loadDoc(cli.reportTracePath, traceDoc);
        inputs.trace = &traceDoc;
    }
    if (!cli.reportProfilePath.empty()) {
        loadDoc(cli.reportProfilePath, profileDoc);
        inputs.profile = &profileDoc;
    }
    writeTextFile(cli.reportOutPath, report::renderHtml(inputs));
    std::printf("wrote %s\n", cli.reportOutPath.c_str());
    return 0;
}

int
cmdMachines()
{
    Table t("Predefined machine models:");
    t.setHeader({"name", "n (issue)", "m (degree)", "notes"});
    auto row = [&](const MachineConfig &m, const char *notes) {
        t.row()
            .cell(m.name)
            .cell(static_cast<long long>(m.issueWidth))
            .cell(static_cast<long long>(m.pipelineDegree))
            .cell(notes);
    };
    row(baseMachine(), "unit latencies, never stalls");
    row(idealSuperscalar(4), "ssN: N issues/cycle, no conflicts");
    row(superpipelined(4), "spM: minor cycle = 1/M base cycle");
    row(superpipelinedSuperscalar(2, 2), "ssNxM: both at once");
    row(multiTitan(), "real latencies (loads 2, FP 3)");
    row(cray1(), "real latencies (loads 11, FP ~7)");
    row(superscalarWithClassConflicts(4),
        "conflictsN: width N, one unit pool");
    row(underpipelinedHalfIssue(), "issues every other cycle");
    t.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Arm chaos injection from $SSIM_FAULT before any sweep machinery
    // runs; with the variable unset every site visit is one relaxed
    // atomic load.
    fault::configureFromEnv();
    Cli cli = parseArgs(argc, argv);
    if (cli.command == "run")
        return cmdRun(cli);
    if (cli.command == "ilp")
        return cmdIlp(cli);
    if (cli.command == "profile")
        return cmdProfile(cli);
    if (cli.command == "mix")
        return cmdMix(cli);
    if (cli.command == "whatif")
        return cmdWhatIf(cli);
    if (cli.command == "dump")
        return cmdDump(cli);
    if (cli.command == "suite")
        return cmdSuite(cli);
    if (cli.command == "machines")
        return cmdMachines();
    if (cli.command == "check-json")
        return cmdCheckJson(cli);
    if (cli.command == "bench-check")
        return cmdBenchCheck(cli);
    if (cli.command == "report")
        return cmdReport(cli);
    usage();
}
