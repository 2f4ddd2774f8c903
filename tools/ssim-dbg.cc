/**
 * @file
 * ssim-dbg — developer scratch probes behind one binary, replacing
 * the historical pile of dbg*.cc one-offs.  Not part of the measured
 * surface; these exist to poke at a single layer in isolation when
 * the full `ssim` pipeline obscures it.
 *
 *   ssim-dbg pipeline [workload]  IR shape before/after optimization
 *   ssim-dbg fpcheck              careful-unrolling FP checksum drift
 *   ssim-dbg daxpy                unroll 1 vs 4 on a daxpy loop + IR
 *   ssim-dbg kernels              IPC of three hand-written kernels
 *   ssim-dbg strength             strength reduction before/after IR
 *   ssim-dbg levels [workload]    checksums across opt levels 0..4
 *   ssim-dbg unroll               unroll sweep on linpack/livermore
 *
 * Debug channels (SSIM_DEBUG=issue,cache,... or SSIM_DEBUG=all) work
 * here like in ssim; see docs/observability.md.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/machine/models.hh"
#include "core/study/driver.hh"
#include "frontend/compile.hh"
#include "ir/printer.hh"
#include "opt/pipeline.hh"

using namespace ilp;

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: ssim-dbg "
                 "pipeline|fpcheck|daxpy|kernels|strength|levels|"
                 "unroll [workload]\n");
    std::exit(2);
}

/** IR shape through the pipeline for one workload (was dbg.cc). */
int
cmdPipeline(const char *name)
{
    const Workload &w = workloadByName(name ? name : "linpack");
    UnrollOptions u;
    u.factor = 4;
    u.careful = true;
    Module m = compileToIr(w.source, u);
    std::printf("after frontend: funcs=%zu\n", m.functions().size());
    for (auto &f : m.functions())
        std::printf("  %-16s blocks=%zu instrs=%zu vregs=%u\n",
                    f.name.c_str(), f.blocks.size(), f.instrCount(),
                    f.numVirtRegs);

    OptimizeOptions oo;
    oo.level = OptLevel::RegAlloc;
    oo.alias = AliasLevel::Heroic;
    oo.reassociate = true;
    oo.layout.numTemp = 40;
    oo.layout.numHome = 26;
    CompileTelemetry telemetry;
    optimizeModule(m, idealSuperscalar(8), oo, &telemetry);

    std::printf("after optimizer: spills=%llu fill=%.2f\n",
                static_cast<unsigned long long>(telemetry.spills),
                telemetry.sched.fillRate());
    for (const auto &ps : telemetry.phases)
        std::printf("  %-16s runs=%llu instrs %llu -> %llu "
                    "changed=%lld\n",
                    ps.name.c_str(),
                    static_cast<unsigned long long>(ps.runs),
                    static_cast<unsigned long long>(ps.instrsBefore),
                    static_cast<unsigned long long>(ps.instrsAfter),
                    static_cast<long long>(ps.changed));
    return 0;
}

/** FP checksum drift under careful unrolling (was dbg2.cc). */
int
cmdFpCheck()
{
    for (const auto &w : allWorkloads()) {
        CompileOptions o = defaultCompileOptions(w);
        RunOutcome ref = runWorkload(w, idealSuperscalar(4), o);
        CompileOptions careful = o;
        careful.unroll.factor = 4;
        careful.unroll.careful = true;
        careful.alias = AliasLevel::Heroic;
        careful.layout.numTemp = 40;
        RunOutcome out = runWorkload(w, idealSuperscalar(4), careful);
        double denom = std::max(1.0, std::fabs(ref.fpChecksum));
        std::printf("%-10s ref=%.12g careful=%.12g rel=%.3g\n",
                    w.name.c_str(), ref.fpChecksum, out.fpChecksum,
                    std::fabs(out.fpChecksum - ref.fpChecksum) /
                        denom);
    }
    return 0;
}

/** Unroll factors on a daxpy loop, plus the scheduled IR
 *  (was dbg3.cc). */
int
cmdDaxpy()
{
    const char *src = R"(
var real a[4096];
func main() : int {
    var int rep;
    var int i;
    var real t;
    t = 1.5;
    for (rep = 0; rep < 200; rep = rep + 1) {
        for (i = 0; i < 100; i = i + 1) {
            a[2000 + i] = a[2000 + i] + t * a[1000 + i];
        }
    }
    return int(a[2050]);
})";
    Workload w{"daxpy", "", src, 0, false, 4};
    for (int unroll : {1, 4}) {
        CompileOptions o = defaultCompileOptions(w);
        o.unroll.factor = unroll;
        RunOutcome out = runWorkload(w, idealSuperscalar(8), o);
        std::printf("unroll=%d instr=%llu cyc=%.0f ipc=%.2f\n",
                    unroll,
                    static_cast<unsigned long long>(out.instructions),
                    out.cycles, out.ipc());
    }
    CompileOptions o = defaultCompileOptions(w);
    o.unroll.factor = 4;
    Module m = compileWorkload(w.source, idealSuperscalar(8), o);
    std::printf("%s\n",
                toString(m.function(m.findFunction("main"))).c_str());
    return 0;
}

/** IPC of three hand-written kernels (was dbg4.cc). */
int
cmdKernels()
{
    auto measure = [](const char *name, const std::string &src,
                      int unroll = 4) {
        Workload w{name, "", src, 0, false, unroll};
        CompileOptions o = defaultCompileOptions(w);
        RunOutcome out = runWorkload(w, idealSuperscalar(8), o);
        std::printf("%-12s instr=%8llu ipc=%.2f\n", name,
                    static_cast<unsigned long long>(out.instructions),
                    out.ipc());
    };
    std::string prelude = R"(
var real a[4096];
var int seed;
func rndf() : real {
    seed = (seed * 1103515245 + 12345) % 2147483648;
    return real(seed % 20000) / 10000.0 - 1.0;
}
func daxpy(int lo, int hi, real t, int xoff, int yoff) {
    var int i;
    for (i = lo; i < hi; i = i + 1) {
        a[yoff + i] = a[yoff + i] + t * a[xoff + i];
    }
}
)";
    measure("init-only", prelude + R"(
func main() : int {
    var int i; var int rep; var real s;
    s = 0.0;
    for (rep = 0; rep < 30; rep = rep + 1) {
        for (i = 0; i < 4096; i = i + 1) { a[i] = rndf(); }
    }
    return int(a[5] * 100.0);
})");
    measure("daxpy-calls", prelude + R"(
func main() : int {
    var int rep; var int j;
    for (j = 0; j < 4096; j = j + 1) { a[j] = 1.0; }
    for (rep = 0; rep < 500; rep = rep + 1) {
        for (j = 0; j < 30; j = j + 1) {
            daxpy(j, 64, 0.001, 1024, 2048);
        }
    }
    return int(a[2060]);
})");
    measure("idamax-ish", prelude + R"(
func main() : int {
    var int rep; var int i; var int im; var real vm; var real v;
    for (i = 0; i < 4096; i = i + 1) { a[i] = rndf(); }
    im = 0;
    for (rep = 0; rep < 300; rep = rep + 1) {
        vm = 0.0;
        for (i = 0; i < 4096; i = i + 1) {
            v = a[i];
            if (v < 0.0) { v = -v; }
            if (v > vm) { vm = v; im = i; }
        }
    }
    return im;
})");
    return 0;
}

/** Strength reduction before/after IR on a daxpy loop
 *  (was dbg5.cc). */
int
cmdStrength()
{
    const char *src = R"(
var real a[4096];
func main() : int {
    var int i;
    var real t;
    t = 1.5;
    for (i = 0; i < 100; i = i + 1) {
        a[2000 + i] = a[2000 + i] + t * a[1000 + i];
    }
    return int(a[2050]);
})";
    UnrollOptions u;
    u.factor = 4;
    Module m = compileToIr(src, u);
    Function &f = m.function(m.findFunction("main"));
    auto cleanup = [&] {
        for (int r = 0; r < 8; ++r) {
            int c = foldConstants(f) + localValueNumbering(f) +
                    eliminateDeadCode(f);
            if (!c)
                break;
        }
    };
    cleanup();
    hoistLoopInvariants(m, f);
    cleanup();
    RegFileLayout lay;
    allocateHomeRegisters(f, lay);
    cleanup();
    std::printf("BEFORE SR:\n%s\n", toString(f).c_str());
    int n = strengthReduceLoops(f);
    std::printf("SR fired: %d\n", n);
    cleanup();
    std::printf("AFTER SR+cleanup:\n%s\n", toString(f).c_str());
    return 0;
}

/** Checksums across opt levels (was the loop in smoke.cc, kept here
 *  so the consolidated tool covers it too). */
int
cmdLevels(const char *only)
{
    for (const auto &w : allWorkloads()) {
        if (only && w.name != only)
            continue;
        for (int lv = 0; lv <= 4; ++lv) {
            CompileOptions o = defaultCompileOptions(w);
            o.level = static_cast<OptLevel>(lv);
            RunOutcome out = runWorkload(w, idealSuperscalar(8), o);
            std::printf("%-10s lvl=%d checksum=%lld fp=%.10g "
                        "instr=%llu cyc=%.0f ipc=%.2f\n",
                        w.name.c_str(), lv,
                        static_cast<long long>(out.checksum),
                        out.fpChecksum,
                        static_cast<unsigned long long>(
                            out.instructions),
                        out.cycles, out.ipc());
        }
    }
    return 0;
}

/** Unroll-factor sweep on the two loopy benchmarks (was
 *  unrolltest.cc). */
int
cmdUnroll()
{
    for (const char *name : {"linpack", "livermore"}) {
        const Workload &w = workloadByName(name);
        for (int u : {1, 2, 4, 8}) {
            CompileOptions o = defaultCompileOptions(w);
            o.unroll.factor = u;
            RunOutcome out = runWorkload(w, idealSuperscalar(4), o);
            std::printf("%-10s unroll=%d instr=%llu cyc=%.0f "
                        "ipc=%.2f\n",
                        name, u,
                        static_cast<unsigned long long>(
                            out.instructions),
                        out.cycles, out.ipc());
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    const char *arg = argc > 2 ? argv[2] : nullptr;
    if (cmd == "pipeline")
        return cmdPipeline(arg);
    if (cmd == "fpcheck")
        return cmdFpCheck();
    if (cmd == "daxpy")
        return cmdDaxpy();
    if (cmd == "kernels")
        return cmdKernels();
    if (cmd == "strength")
        return cmdStrength();
    if (cmd == "levels")
        return cmdLevels(arg);
    if (cmd == "unroll")
        return cmdUnroll();
    usage();
}
