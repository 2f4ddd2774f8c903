/**
 * Pass pipeline tour: watch one small function move through the
 * optimizer — raw codegen, local cleanup, loop-invariant code motion,
 * home-register promotion, strength reduction, register assignment,
 * and machine scheduling — with the IR printed at each stage and the
 * measured parallelism alongside (the Figure 4-8 story, one pass at a
 * time).
 */

#include <cstdio>

#include "core/machine/models.hh"
#include "frontend/compile.hh"
#include "ir/printer.hh"
#include "opt/passes.hh"
#include "sim/exec.hh"
#include "sim/issue.hh"

using namespace ilp;

namespace {

const char *kProgram = R"(
var real v[128];
var real scale;

func main() : int {
    var int i;
    var real s = 0.0;
    scale = 0.5;
    for (i = 0; i < 128; i = i + 1) {
        v[i] = real(i) * scale + 1.0;
        s = s + v[i];
    }
    return int(s);
}
)";

void
show(const char *stage, Module &module)
{
    const Function &f =
        module.function(module.findFunction("main"));
    std::printf("---- %s (%zu instrs, %zu blocks) ----\n%s\n", stage,
                f.instrCount(), f.blocks.size(),
                toString(f).c_str());
}

} // namespace

int
main()
{
    Module module = compileToIr(kProgram);
    Function &f = module.function(module.findFunction("main"));
    show("raw code generation", module);

    foldConstants(f);
    localValueNumbering(f);
    globalCopyPropagation(f);
    eliminateDeadCode(f);
    show("after local optimization (CSE, folding, DCE)", module);

    hoistLoopInvariants(module, f);
    foldConstants(f);
    localValueNumbering(f);
    globalCopyPropagation(f);
    eliminateDeadCode(f);
    show("after loop-invariant code motion", module);

    RegFileLayout layout;
    allocateHomeRegisters(f, layout);
    localValueNumbering(f);
    globalCopyPropagation(f);
    eliminateDeadCode(f);
    show("after global register allocation (home promotion)", module);

    strengthReduceLoops(f);
    localValueNumbering(f);
    globalCopyPropagation(f);
    eliminateDeadCode(f);
    show("after induction-variable strength reduction", module);

    assignRegisters(f, layout);
    MachineConfig target = idealSuperscalar(4);
    scheduleFunction(module, f, target, AliasLevel::Arrays);
    show("after register assignment + scheduling (ideal 4-wide)",
         module);

    IssueEngine engine(target);
    RunResult r = makeExecutor(module)->runTimed("main", engine);
    std::printf("result %lld, %llu instructions, %.0f cycles, "
                "%.2f instr/cycle\n",
                static_cast<long long>(r.returnValue),
                static_cast<unsigned long long>(r.instructions),
                engine.baseCycles(), engine.instrPerBaseCycle());
    return 0;
}
