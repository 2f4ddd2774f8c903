/**
 * @file
 * One pass of one perfbench workload, in a fresh process.
 *
 * perfbench/run.py launches this driver once per pass and aggregates
 * the passes; the driver only runs ops, times them, checks every
 * output against the recorded references and prints one JSON object
 * describing the pass on stdout.  See perfbench/README.md for the
 * workloads and metrics.
 *
 *   perfbench_driver --workload paper_regen|taxonomy_cells|compile_sweep
 *                    --refs DIR [--seed N] [--jobs N] [--t0-ns NS]
 *                    [--setup-only] [--record] [--trace-out FILE]
 *                    [--bin-dir DIR] [--work-dir DIR]
 *
 * --t0-ns is the launcher's CLOCK_MONOTONIC reading just before it
 * started this process, so setup_s covers exec, static init, loading
 * references and building the op list.  --record rewrites the
 * references from this pass instead of checking against them.
 * --trace-out arms the flight recorder, wraps every op in a
 * "perfbench.op" span and writes the Chrome trace there.
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/machine/models.hh"
#include "core/study/experiment.hh"
#include "core/study/telemetry.hh"
#include "ir/printer.hh"
#include "sim/exec.hh"
#include "support/buildinfo.hh"
#include "support/json.hh"
#include "support/metrics.hh"
#include "support/trace.hh"

extern char **environ;

using namespace ilp;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args
{
    std::string workload;
    std::string refs;
    std::string traceOut;
    std::string binDir;
    std::string workDir;
    std::uint64_t seed = 1;
    int jobs = 0;
    std::int64_t t0Ns = -1;
    bool setupOnly = false;
    bool record = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --workload W --refs DIR "
                 "[--seed N] [--jobs N] [--t0-ns NS] [--setup-only] "
                 "[--record] [--trace-out FILE] [--bin-dir DIR] "
                 "[--work-dir DIR]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload")
            a.workload = value();
        else if (arg == "--refs")
            a.refs = value();
        else if (arg == "--trace-out")
            a.traceOut = value();
        else if (arg == "--bin-dir")
            a.binDir = value();
        else if (arg == "--work-dir")
            a.workDir = value();
        else if (arg == "--seed")
            a.seed = std::stoull(value());
        else if (arg == "--jobs")
            a.jobs = std::stoi(value());
        else if (arg == "--t0-ns")
            a.t0Ns = std::stoll(value());
        else if (arg == "--setup-only")
            a.setupOnly = true;
        else if (arg == "--record")
            a.record = true;
        else
            usage("unknown argument " + arg);
    }
    if (a.workload.empty() || a.refs.empty())
        usage("--workload and --refs are required");
    if (a.jobs <= 0)
        a.jobs = static_cast<int>(
            std::max(1u, std::thread::hardware_concurrency()));
    return a;
}

/** Process start as the launcher saw it, else as early as we can. */
const Clock::time_point kStaticInit = Clock::now();

Clock::time_point
processStart(const Args &args)
{
    if (args.t0Ns < 0)
        return kStaticInit;
    return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
        std::chrono::nanoseconds(args.t0Ns)));
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
readFile(const std::string &path, bool *ok = nullptr)
{
    std::ifstream in(path, std::ios::binary);
    if (ok)
        *ok = static_cast<bool>(in);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out) {
        std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                     path.c_str());
        std::exit(1);
    }
}

/** "id<TAB>value" lines -> id -> value. */
std::map<std::string, std::string>
loadTable(const std::string &path)
{
    std::map<std::string, std::string> table;
    std::istringstream in(readFile(path));
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t tab = line.find('\t');
        if (line.empty() || line[0] == '#' || tab == std::string::npos)
            continue;
        table[line.substr(0, tab)] = line.substr(tab + 1);
    }
    return table;
}

void
writeTable(const std::string &path, const std::string &header,
           const std::vector<std::string> &ids,
           const std::vector<std::string> &values)
{
    std::string text = "# " + header + "\n";
    for (std::size_t i = 0; i < ids.size(); ++i)
        text += ids[i] + "\t" + values[i] + "\n";
    writeFile(path, text);
}

/** Op order for a seed: a Fisher-Yates shuffle drawn from mt19937_64,
 *  so the same seed gives the same order on every platform. */
std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::mt19937_64 rng(seed);
    for (std::size_t i = n; i > 1; --i) {
        const std::size_t j = static_cast<std::size_t>(rng() % i);
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

/** What one op did; an empty error means it was correct. */
struct OpRecord
{
    std::string id;
    double ms = 0.0;
    double rssMb = 0.0;
    std::string error;
};

/**
 * With --record, write `values` (indexed like `ids`) as the references;
 * otherwise compare each op's value with its reference.  records[k] is
 * op order[k]; an op that already failed keeps its error.
 */
void
checkOrRecord(const Args &args, const std::string &path,
              const std::string &header,
              const std::map<std::string, std::string> &refs,
              const std::vector<std::string> &ids,
              const std::vector<std::string> &values,
              const std::vector<std::size_t> &order,
              std::vector<OpRecord> &records)
{
    if (args.record) {
        writeTable(path, header, ids, values);
        return;
    }
    for (std::size_t k = 0; k < order.size(); ++k) {
        const std::size_t i = order[k];
        OpRecord &rec = records[k];
        if (!rec.error.empty())
            continue;
        auto it = refs.find(ids[i]);
        if (it == refs.end())
            rec.error = "no reference";
        else if (it->second != values[i])
            rec.error = "got '" + values[i] + "', reference '" +
                        it->second + "'";
    }
}

double
selfPeakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Everything a pass measured, before it becomes JSON. */
struct Pass
{
    Clock::time_point firstOp;
    double wallMs = 0.0;
    double peakRssMb = 0.0;
    /** Ops in the order they were taken. */
    std::vector<OpRecord> ops;
    Json extra = Json::object();
};

/** The flight-recorder session around a traced pass. */
class TraceSession
{
  public:
    explicit TraceSession(const std::string &path) : path_(path)
    {
        if (!path_.empty())
            trace::Recorder::instance().start();
    }
    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    bool on() const { return !path_.empty(); }

    /** Stop recording and write the Chrome trace; returns the span
     *  count (0 when the recorder is compiled out). */
    std::size_t
    finish(const std::string &workload)
    {
        if (!on())
            return 0;
        trace::Recording rec = trace::Recorder::instance().stop();
        MachineConfig label;
        label.name = "perfbench:" + workload;
        writeJsonFile(path_, buildSweepTraceEvents(rec, label));
        return rec.spans.size();
    }

  private:
    std::string path_;
};

/**
 * Run the ops over the runner's closed-loop pool (each worker takes
 * the next op when its last one finishes), in the order `order`
 * gives.  `op(i, rec)` does op i and fills rec.error; this wraps it in
 * the op span and times it.  `after(i)`, when set, runs outside the
 * op span and its timing.
 */
void
runClosedLoop(const SweepRunner &runner,
              const std::vector<std::size_t> &order,
              std::vector<OpRecord> &records,
              const std::function<void(std::size_t, OpRecord &)> &op,
              const std::function<void(std::size_t)> &after)
{
    runner.run(order.size(), [&](std::size_t k) {
        OpRecord &rec = records[k];
        const std::size_t i = order[k];
        {
            trace::ScopedSpan span("perfbench.op", "perfbench");
            if (span.armed())
                span.detail(rec.id);
            const Clock::time_point t0 = Clock::now();
            op(i, rec);
            rec.ms = msBetween(t0, Clock::now());
        }
        if (after)
            after(i);
    });
}

// ------------------------------------------------------ taxonomy_cells

struct Cell
{
    std::string id;
    const Workload *workload = nullptr;
    MachineConfig machine;
};

MachineConfig
named(MachineConfig m, const std::string &name)
{
    m.name = name;
    return m;
}

MachineConfig
widened(MachineConfig m, int width, const std::string &name)
{
    m.issueWidth = width;
    return named(std::move(m), name);
}

MachineConfig
fenced(int width)
{
    MachineConfig m = idealSuperscalar(width);
    m.issueAcrossBranches = false;
    return named(std::move(m), "fenced" + std::to_string(width));
}

/** The thirteen non-ideal machines: real latencies, unit conflicts,
 *  branch fences and superpipelined-superscalar minor cycles. */
std::vector<MachineConfig>
taxonomyMachines()
{
    return {
        named(multiTitan(), "multititan"),
        widened(multiTitan(), 2, "multititan-w2"),
        named(cray1(), "cray1-w1"),
        widened(cray1(), 2, "cray1-w2"),
        widened(cray1(), 4, "cray1-w4"),
        named(superscalarWithClassConflicts(2), "conflicts2"),
        named(superscalarWithClassConflicts(4), "conflicts4"),
        named(superscalarWithClassConflicts(8), "conflicts8"),
        named(superscalarWithClassConflicts(4, 2, 2), "conflicts4-2alu-2mem"),
        fenced(4),
        fenced(8),
        named(superpipelinedSuperscalar(2, 2), "ss2x2"),
        named(superpipelinedSuperscalar(2, 4), "ss2x4"),
    };
}

std::vector<Cell>
taxonomyCells()
{
    std::vector<Cell> cells;
    for (const Workload &w : allWorkloads()) {
        for (const MachineConfig &m : taxonomyMachines())
            cells.push_back({w.name + "@" + m.name, &w, m});
    }
    return cells;
}

std::string
formatCycles(double cycles)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", cycles);
    return buf;
}

/** Simulated results of the traced probe calls for one cell. */
struct Probe
{
    double lowerMs = 0.0;
    double execMs = 0.0;
    double timedMs = 0.0;
    std::uint64_t instructions = 0;
    double baseCycles = 0.0;
    std::uint64_t lostSlots = 0;
    StallBreakdown stalls;
};

Pass
runTaxonomy(const Args &args)
{
    const std::vector<Cell> cells = taxonomyCells();
    const std::string refPath = args.refs + "/taxonomy_cells.tsv";
    const std::map<std::string, std::string> refs =
        args.record ? std::map<std::string, std::string>{}
                    : loadTable(refPath);
    const std::vector<std::size_t> order =
        permutation(cells.size(), args.seed);
    Study study(args.jobs);
    std::vector<OpRecord> records(cells.size());
    for (std::size_t k = 0; k < order.size(); ++k)
        records[k].id = cells[order[k]].id;
    std::vector<std::string> results(cells.size());
    std::vector<std::uint64_t> instructions(cells.size(), 0);
    std::vector<Probe> probes(cells.size());
    std::vector<std::string> probeErrors(cells.size());

    Pass pass;
    pass.firstOp = Clock::now();
    if (args.setupOnly)
        return pass;

    TraceSession session(args.traceOut);
    auto op = [&](std::size_t i, OpRecord &rec) {
        const Cell &c = cells[i];
        RunOutcome out = study.timedRun(
            *c.workload, c.machine, defaultCompileOptions(*c.workload));
        instructions[i] = out.instructions;
        results[i] = std::to_string(out.checksum) + "\t" +
                     std::to_string(out.instructions) + "\t" +
                     formatCycles(out.cycles);
        if (out.trapped())
            rec.error = "trapped: " + out.trap.format();
        else if (out.checksum != c.workload->expected)
            rec.error = "checksum " + std::to_string(out.checksum) +
                        " != expected " +
                        std::to_string(c.workload->expected);
    };
    // Two probe calls per cell, outside the op span: functional
    // execution with no sink, then the fused execute-and-time path
    // into an IssueEngine.  Their difference is the issue engine.
    auto probe = [&](std::size_t i) {
        trace::ScopedSpan span("perfbench.probe", "perfbench");
        const Cell &c = cells[i];
        std::shared_ptr<const Module> module = study.compileCache().compile(
            *c.workload, c.machine, defaultCompileOptions(*c.workload));
        Probe &p = probes[i];
        Clock::time_point a = Clock::now();
        std::unique_ptr<Executor> exec = makeExecutor(*module);
        Clock::time_point b = Clock::now();
        const RunResult plain = exec->run("main");
        Clock::time_point e = Clock::now();
        p.lowerMs = msBetween(a, b);
        p.execMs = msBetween(b, e);
        std::unique_ptr<Executor> exec2 = makeExecutor(*module);
        IssueEngine engine(c.machine);
        a = Clock::now();
        const RunResult timed = exec2->runTimed("main", engine);
        p.timedMs = msBetween(a, Clock::now());
        p.instructions = engine.instructions();
        p.baseCycles = engine.baseCycles();
        p.lostSlots = engine.lostIssueSlots();
        p.stalls = engine.stallBreakdown();
        // A sink-less run does not count call argument moves, so only
        // the timed probe's count must equal the op's.
        if (plain.returnValue != timed.returnValue ||
            timed.instructions != instructions[i])
            probeErrors[i] = "probe calls disagree with the op";
    };
    runClosedLoop(study.runner(), order, records, op,
                  session.on() ? std::function<void(std::size_t)>(probe)
                               : nullptr);
    pass.wallMs = msBetween(pass.firstOp, Clock::now());
    const std::size_t spans = session.finish(args.workload);

    std::uint64_t total_instr = 0;
    std::vector<std::string> ids;
    for (std::size_t k = 0; k < order.size(); ++k) {
        const std::size_t i = order[k];
        total_instr += instructions[i];
        if (records[k].error.empty())
            records[k].error = probeErrors[i];
    }
    for (const Cell &c : cells)
        ids.push_back(c.id);
    checkOrRecord(args, refPath, "cell\tchecksum\tinstructions\tbase_cycles",
                  refs, ids, results, order, records);
    pass.ops = std::move(records);
    pass.peakRssMb = selfPeakRssMb();

    metrics::Registry &reg = metrics::Registry::global();
    const double hits = static_cast<double>(
        reg.counter("ssim_trace_cache_hits_total").value());
    const double misses = static_cast<double>(
        reg.counter("ssim_trace_cache_misses_total").value());
    pass.extra.set("instructions", Json(total_instr));
    pass.extra.set("trace_cache_hits", Json(hits));
    pass.extra.set("trace_cache_lookups", Json(hits + misses));
    if (session.on()) {
        Probe sum;
        for (const Probe &p : probes) { // cell order: deterministic sums
            sum.lowerMs += p.lowerMs;
            sum.execMs += p.execMs;
            sum.timedMs += p.timedMs;
            sum.instructions += p.instructions;
            sum.baseCycles += p.baseCycles;
            sum.lostSlots += p.lostSlots;
            for (std::size_t s = 0; s < kNumStallCauses; ++s)
                sum.stalls.slots[s] += p.stalls.slots[s];
        }
        Json pj = Json::object();
        pj.set("cells", Json(static_cast<std::uint64_t>(probes.size())));
        pj.set("lower_ms", Json(sum.lowerMs));
        pj.set("exec_ms", Json(sum.execMs));
        pj.set("timed_ms", Json(sum.timedMs));
        pj.set("instructions", Json(sum.instructions));
        pj.set("base_cycles", Json(sum.baseCycles));
        pj.set("lost_slots", Json(sum.lostSlots));
        Json stalls = Json::object();
        for (std::size_t s = 0; s < kNumStallCauses; ++s)
            stalls.set(stallCauseName(static_cast<StallCause>(s)),
                       Json(sum.stalls.slots[s]));
        pj.set("stalls", std::move(stalls));
        pass.extra.set("probe", std::move(pj));
        pass.extra.set("spans", Json(static_cast<std::uint64_t>(spans)));
    }
    return pass;
}

// ------------------------------------------------------- compile_sweep

struct CompileJob
{
    std::string id;
    const Workload *workload = nullptr;
    MachineConfig target;
    CompileOptions options;
};

std::vector<CompileJob>
compileJobs()
{
    const std::vector<MachineConfig> targets{
        named(baseMachine(), "base"),
        named(idealSuperscalar(4), "ss4"),
        named(idealSuperscalar(8), "ss8"),
        named(multiTitan(), "multititan"),
        named(cray1(), "cray1"),
    };
    std::vector<CompileJob> jobs;
    // Figure 4-8: the five cumulative levels, 16 temps / 26 homes.
    for (const Workload &w : allWorkloads()) {
        for (int level = 0; level < 5; ++level) {
            for (const MachineConfig &t : targets) {
                CompileOptions o = defaultCompileOptions(w);
                o.level = static_cast<OptLevel>(level);
                jobs.push_back({w.name + "/L" + std::to_string(level) +
                                    "/" + t.name,
                                &w, t, o});
            }
        }
    }
    // Figure 4-6: unrolling, naive and careful, forty temps, on the
    // machines Figure 4-6's parallelism divides (base and ss8).
    for (const char *name : {"linpack", "livermore"}) {
        const Workload &w = workloadByName(name);
        for (int factor : {1, 2, 4, 6, 8, 10}) {
            for (bool careful : {false, true}) {
                for (const MachineConfig &t : {targets[0], targets[2]}) {
                    CompileOptions o = defaultCompileOptions(w);
                    o.unroll.factor = factor;
                    o.unroll.careful = careful;
                    o.alias = careful ? AliasLevel::Heroic
                                      : AliasLevel::Arrays;
                    o.layout.numTemp = 40;
                    jobs.push_back({w.name + "/u" +
                                        std::to_string(factor) +
                                        (careful ? "-careful/"
                                                 : "-naive/") +
                                        t.name,
                                    &w, t, o});
                }
            }
        }
    }
    return jobs;
}

Pass
runCompileSweep(const Args &args)
{
    const std::vector<CompileJob> jobs = compileJobs();
    const std::string refPath = args.refs + "/compile_sweep.tsv";
    const std::map<std::string, std::string> refs =
        args.record ? std::map<std::string, std::string>{}
                    : loadTable(refPath);
    const std::vector<std::size_t> order =
        permutation(jobs.size(), args.seed);
    SweepRunner runner(args.jobs);
    std::vector<OpRecord> records(jobs.size());
    for (std::size_t k = 0; k < order.size(); ++k)
        records[k].id = jobs[order[k]].id;
    std::vector<std::string> digests(jobs.size());

    Pass pass;
    pass.firstOp = Clock::now();
    if (args.setupOnly)
        return pass;

    TraceSession session(args.traceOut);
    std::vector<std::unique_ptr<Module>> modules(jobs.size());
    auto op = [&](std::size_t i, OpRecord &rec) {
        const CompileJob &j = jobs[i];
        Result<Module> r = compileWorkloadChecked(
            j.workload->source, j.target, j.options, nullptr,
            j.workload->name);
        if (r.ok())
            modules[i] = std::make_unique<Module>(r.take());
        else
            rec.error = r.formatErrors();
    };
    // The digest is taken outside the op's span and timing.
    auto digest = [&](std::size_t i) {
        if (modules[i])
            digests[i] = hex64(fnv1a(toString(*modules[i])));
        modules[i].reset();
    };
    runClosedLoop(runner, order, records, op, digest);
    pass.wallMs = msBetween(pass.firstOp, Clock::now());
    const std::size_t spans = session.finish(args.workload);

    std::vector<std::string> ids;
    for (const CompileJob &j : jobs)
        ids.push_back(j.id);
    checkOrRecord(args, refPath, "compile\tmodule_digest_fnv1a64", refs,
                  ids, digests, order, records);
    pass.ops = std::move(records);
    pass.peakRssMb = selfPeakRssMb();
    if (session.on())
        pass.extra.set("spans", Json(static_cast<std::uint64_t>(spans)));
    return pass;
}

// --------------------------------------------------------- paper_regen

/** The paper artifacts: the twelve bench binaries plus `ssim suite`. */
const std::vector<std::string> &
paperArtifacts()
{
    static const std::vector<std::string> names{
        "figure_2_taxonomy",
        "ablation_design_choices",
        "table_2_1_superpipelining",
        "figure_4_1_supersymmetry",
        "figure_4_2_startup",
        "figure_4_3_utilization",
        "figure_4_4_cray1",
        "figure_4_5_per_benchmark",
        "figure_4_6_unrolling",
        "figure_4_7_optimization_graph",
        "figure_4_8_optimization_levels",
        "table_5_1_cache_miss_cost",
        "ssim_suite",
    };
    return names;
}

/** The environment children see: ours minus every SSIM_* knob, plus
 *  SSIM_JOBS, so no stray setting changes what an artifact does. */
std::vector<std::string>
childEnvironment(int jobs)
{
    std::vector<std::string> env;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "SSIM_", 5) != 0)
            env.emplace_back(*e);
    }
    env.push_back("SSIM_JOBS=" + std::to_string(jobs));
    return env;
}

/** Spawn one artifact, stdout/stderr to files; returns the wait
 *  status and fills the child's peak RSS. */
int
spawnAndWait(const std::vector<std::string> &argv,
             const std::vector<std::string> &env, const std::string &out,
             const std::string &err, double &rssMb)
{
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, out.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&actions, 2, err.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<char *> cargv, cenv;
    for (const std::string &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);
    for (const std::string &e : env)
        cenv.push_back(const_cast<char *>(e.c_str()));
    cenv.push_back(nullptr);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, cargv[0], &actions, nullptr,
                               cargv.data(), cenv.data());
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        rssMb = 0.0;
        return -1;
    }
    int status = 0;
    struct rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR) {
            rssMb = 0.0;
            return -1;
        }
    }
    rssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return status;
}

/** 1-based number of the first line where two texts differ. */
std::size_t
firstDifferingLine(const std::string &a, const std::string &b)
{
    std::size_t line = 1;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        if (a[i] != b[i])
            return line;
        if (a[i] == '\n')
            ++line;
    }
    return line;
}

Pass
runPaperRegen(const Args &args)
{
    const std::vector<std::string> &names = paperArtifacts();
    if (args.binDir.empty() || args.workDir.empty())
        usage("paper_regen needs --bin-dir and --work-dir");
    const std::string binDir = fs::absolute(args.binDir).string();
    const std::string refDir =
        fs::absolute(args.refs).string() + "/paper_regen";
    std::vector<std::optional<std::string>> refs(names.size());
    for (std::size_t i = 0; i < names.size() && !args.record; ++i) {
        bool ok = false;
        std::string text = readFile(refDir + "/" + names[i] + ".txt", &ok);
        if (ok)
            refs[i] = std::move(text);
    }
    if (args.record)
        fs::create_directories(refDir);
    const std::vector<std::size_t> order =
        permutation(names.size(), args.seed);
    const std::vector<std::string> env = childEnvironment(args.jobs);
    // Children run from a work directory: some write BENCH_*.json there.
    fs::create_directories(args.workDir);
    const std::string workDir = fs::absolute(args.workDir).string();
    if (chdir(workDir.c_str()) != 0) {
        std::fprintf(stderr, "perfbench_driver: cannot enter %s\n",
                     workDir.c_str());
        std::exit(1);
    }

    Pass pass;
    pass.firstOp = Clock::now();
    if (args.setupOnly)
        return pass;

    // Artifacts run one at a time, each with SSIM_JOBS workers.
    for (std::size_t k = 0; k < order.size(); ++k) {
        const std::size_t i = order[k];
        const std::string &name = names[i];
        std::vector<std::string> argv;
        if (name == "ssim_suite")
            argv = {binDir + "/ssim", "suite"};
        else
            argv = {binDir + "/" + name};
        const std::string out = workDir + "/" + name + ".stdout";
        const std::string err = workDir + "/" + name + ".stderr";
        OpRecord rec;
        rec.id = name;
        const Clock::time_point t0 = Clock::now();
        const int status = spawnAndWait(argv, env, out, err, rec.rssMb);
        rec.ms = msBetween(t0, Clock::now());
        const std::string got = readFile(out);
        if (status < 0)
            rec.error = "could not start " + argv[0];
        else if (WIFSIGNALED(status))
            rec.error = "killed by signal " +
                        std::to_string(WTERMSIG(status));
        else if (WEXITSTATUS(status) != 0)
            rec.error = "exit status " +
                        std::to_string(WEXITSTATUS(status));
        else if (args.record)
            writeFile(refDir + "/" + name + ".txt", got);
        else if (!refs[i])
            rec.error = "no reference file";
        else if (got != *refs[i])
            rec.error = "stdout differs from reference at line " +
                        std::to_string(firstDifferingLine(got, *refs[i]));
        pass.peakRssMb = std::max(pass.peakRssMb, rec.rssMb);
        pass.ops.push_back(std::move(rec));
    }
    pass.wallMs = msBetween(pass.firstOp, Clock::now());
    return pass;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Clock::time_point t0 = processStart(args);

    Pass pass;
    if (args.workload == "taxonomy_cells")
        pass = runTaxonomy(args);
    else if (args.workload == "compile_sweep")
        pass = runCompileSweep(args);
    else if (args.workload == "paper_regen")
        pass = runPaperRegen(args);
    else
        usage("unknown workload " + args.workload);

    Json doc = Json::object();
    doc.set("workload", Json(args.workload));
    doc.set("seed", Json(args.seed));
    doc.set("jobs", Json(args.jobs));
    doc.set("version", Json(buildVersion()));
    doc.set("build_type", Json(buildType()));
#ifdef SSIM_NO_FLIGHT_RECORDER
    doc.set("flight_recorder", Json(false));
#else
    doc.set("flight_recorder", Json(true));
#endif
    doc.set("setup_s",
            Json(std::chrono::duration<double>(pass.firstOp - t0).count()));
    if (!args.setupOnly) {
        doc.set("wall_s", Json(pass.wallMs / 1000.0));
        doc.set("peak_rss_mb", Json(pass.peakRssMb));
        Json ops = Json::array();
        std::size_t failed = 0;
        for (const OpRecord &rec : pass.ops) {
            Json o = Json::object();
            o.set("id", Json(rec.id));
            o.set("ms", Json(rec.ms));
            if (rec.rssMb > 0.0)
                o.set("rss_mb", Json(rec.rssMb));
            if (!rec.error.empty()) {
                o.set("error", Json(rec.error));
                ++failed;
            }
            ops.push(std::move(o));
        }
        doc.set("ops", std::move(ops));
        doc.set("failed", Json(static_cast<std::uint64_t>(failed)));
        for (const auto &[key, value] : pass.extra.asObject())
            doc.set(key, value);
    }
    std::printf("%s\n", doc.dump().c_str());
    return 0;
}
