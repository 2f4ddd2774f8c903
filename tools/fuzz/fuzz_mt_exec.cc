/**
 * @file
 * Differential fuzz target for the executor and the issue engine:
 * any MT source that compiles must lower to bytecode and produce
 * *identical* observable results from the bytecode VM and its
 * oracle, the IR-walk interpreter — same checksum, same instruction
 * count, same trap record — and identical timing from three paths
 * on each of three machines (unit conflicts, branch fences,
 * superpipelined-superscalar): the interpreter streaming into an
 * IssueEngine through the virtual TraceSink path, the VM's fused
 * runTimed (its segment memo, and the prefix of a segment a trap
 * cut short), and the naive minor-cycle stepper (sim/issue_ref.hh)
 * fed by a second interpreter run.
 * A divergence is a bug in one of them, surfaced as a fuzzer crash.
 *
 * Built two ways (tools/fuzz/CMakeLists.txt), like the parser target:
 * a libFuzzer binary under -DSS_BUILD_FUZZERS=ON, and always a replay
 * driver (fuzz_mt_exec_replay) that ctest runs over corpus/mt.
 */

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/machine/models.hh"
#include "frontend/compile.hh"
#include "opt/pipeline.hh"
#include "sim/exec.hh"
#include "sim/interp.hh"
#include "sim/issue_ref.hh"

namespace {

/** Instructions, cycles, stall breakdown, issue histogram and class
 *  counts agree (the fused engine folds the counts of its memo hits
 *  in at the end of the run). */
template <class A, class B>
bool
sameTiming(const A &a, const B &b)
{
    return a.instructions() == b.instructions() &&
           a.minorCycles() == b.minorCycles() &&
           a.stallBreakdown().slots == b.stallBreakdown().slots &&
           a.issueCounts() == b.issueCounts() &&
           a.classIssued() == b.classIssued();
}

template <class T>
void
printTiming(const char *who, const T &t)
{
    const ilp::StallBreakdown bd = t.stallBreakdown();
    std::fprintf(stderr,
                 "  %-8s instructions %llu, minor cycles %llu, lost slots",
                 who, static_cast<unsigned long long>(t.instructions()),
                 static_cast<unsigned long long>(t.minorCycles()));
    for (std::uint64_t s : bd.slots)
        std::fprintf(stderr, " %llu", static_cast<unsigned long long>(s));
    std::fprintf(stderr, ", issue histogram");
    for (std::uint64_t c : t.issueCounts())
        std::fprintf(stderr, " %llu", static_cast<unsigned long long>(c));
    std::fprintf(stderr, ", classes");
    for (std::uint64_t c : t.classIssued())
        std::fprintf(stderr, " %llu", static_cast<unsigned long long>(c));
    std::fprintf(stderr, "\n");
}

/** Time the program three ways on `machine`; trap on any mismatch. */
void
checkTiming(ilp::Interpreter &interp, ilp::Executor &vm,
            const ilp::MachineConfig &machine)
{
    ilp::IssueEngine streamed(machine);
    interp.run("main", &streamed);
    ilp::RefIssueStepper stepped(machine);
    interp.run("main", &stepped);
    ilp::IssueEngine fused(machine);
    vm.runTimed("main", fused);
    if (sameTiming(streamed, fused) && sameTiming(streamed, stepped))
        return;
    std::fprintf(stderr, "timing divergence on %s:\n",
                 machine.name.c_str());
    printTiming("interp", streamed);
    printTiming("fused", fused);
    printTiming("stepper", stepped);
    __builtin_trap();
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    if (size > 1 << 16)
        return 0;
    std::string source(reinterpret_cast<const char *>(data), size);
    ilp::Result<ilp::Module> r =
        ilp::compileToIrChecked(source, {}, "<fuzz>");
    if (!r.ok())
        return 0; // parser containment is fuzz_mt_parser's job
    ilp::Module m = r.take();
    try {
        ilp::OptimizeOptions oo;
        oo.level = ilp::OptLevel::None;
        ilp::optimizeModule(m, ilp::baseMachine(), oo);
    } catch (const ilp::DiagException &) {
        return 0; // machine-limit diagnostics are fine
    }

    // Tight fuel keeps adversarial loops fast; both executions see
    // the same budget, so fuel traps must also match exactly.  A
    // compiled program that fails to lower throws E0502: a crash.
    ilp::InterpOptions options;
    options.fuel = 2'000'000;
    ilp::Interpreter interp(m, options);
    std::unique_ptr<ilp::Executor> vm = ilp::makeExecutor(m, options);
    const ilp::RunResult a = interp.run();
    const ilp::RunResult b = vm->run();
    const bool diverged =
        a.trapped() != b.trapped() ||
        a.instructions != b.instructions ||
        a.classCounts != b.classCounts ||
        (!a.trapped() && a.returnValue != b.returnValue) ||
        (a.trapped() && a.trap.format() != b.trap.format());
    if (diverged) {
        std::fprintf(stderr,
                     "backend divergence: interp ret=%llu n=%llu "
                     "trap='%s' | bytecode ret=%llu n=%llu trap='%s'\n",
                     static_cast<unsigned long long>(a.returnValue),
                     static_cast<unsigned long long>(a.instructions),
                     a.trapped() ? a.trap.format().c_str() : "",
                     static_cast<unsigned long long>(b.returnValue),
                     static_cast<unsigned long long>(b.instructions),
                     b.trapped() ? b.trap.format().c_str() : "");
        __builtin_trap();
    }

    ilp::MachineConfig fenced = ilp::superpipelinedSuperscalar(2, 2);
    fenced.name = "ss(2,2),fenced";
    fenced.issueAcrossBranches = false;
    for (const ilp::MachineConfig &machine :
         {ilp::superscalarWithClassConflicts(4, 2, 1), fenced,
          ilp::superpipelinedSuperscalar(4, 2)})
        checkTiming(interp, *vm, machine);
    return 0;
}
