/**
 * Custom workload: build a program directly with the IR builder (no
 * MT front end), then allocate, schedule and time it — the path a
 * library user takes to measure the ILP of code their own tool
 * generates.
 *
 * The program sums an array and counts its even elements:
 *
 *   int sum = 0, evens = 0;
 *   for (i = 0; i < 512; ++i) { sum += a[i]; evens += !(a[i] & 1); }
 */

#include <cstdio>

#include "core/machine/models.hh"
#include "ir/builder.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "opt/pipeline.hh"
#include "sim/exec.hh"
#include "sim/issue.hh"
#include "support/table.hh"

using namespace ilp;

int
main()
{
    Module module;
    std::int64_t a_addr = module.addGlobal("a", 512, false);

    FuncId main_id = module.addFunction("main");
    Function &f = module.function(main_id);
    f.returnsValue = true;
    f.fpReg = f.newVirtReg();

    IrBuilder b(f);
    BlockId init = b.makeBlock("init");
    BlockId loop = b.makeBlock("loop");
    BlockId done = b.makeBlock("done");

    // entry: i = 0; jump init
    Reg i = f.newVirtReg();
    Reg sum = f.newVirtReg();
    Reg evens = f.newVirtReg();
    b.emit(Instr::li(i, 0));
    b.emit(Instr::li(sum, 0));
    b.emit(Instr::li(evens, 0));
    b.jmp(init);

    // init: a[i] = 3*i + 1; i++ until 512, then reset i and fall to
    // the summing loop.
    b.setBlock(init);
    {
        Reg tri = b.binaryImm(Opcode::MulI, i, 3);
        Reg val = b.binaryImm(Opcode::AddI, tri, 1);
        Reg off = b.binaryImm(Opcode::ShlI, i, 3);
        Reg addr = b.binaryImm(Opcode::AddI, off, a_addr);
        b.store(Opcode::StoreW, addr, 0, val);
        b.emit(Instr::binaryImm(Opcode::AddI, i, i, 1));
        Reg c = b.binaryImm(Opcode::CmpLtI, i, 512);
        b.br(c, init, loop);
    }

    // loop: sum += a[i2]; evens += !(a[i2] & 1)  -- reuse i, reset.
    b.setBlock(loop);
    {
        // On entry from init, i == 512: wrap it to zero once by
        // masking (i & 511 keeps the loop body branch-free).
        Reg masked = b.binaryImm(Opcode::AndI, i, 511);
        Reg off = b.binaryImm(Opcode::ShlI, masked, 3);
        Reg addr = b.binaryImm(Opcode::AddI, off, a_addr);
        Reg v = b.load(Opcode::LoadW, addr, 0);
        b.emit(Instr::binary(Opcode::AddI, sum, sum, v));
        Reg bit = b.binaryImm(Opcode::AndI, v, 1);
        Reg is_even = b.binaryImm(Opcode::CmpEqI, bit, 0);
        b.emit(Instr::binary(Opcode::AddI, evens, evens, is_even));
        b.emit(Instr::binaryImm(Opcode::AddI, i, i, 1));
        Reg c = b.binaryImm(Opcode::CmpLtI, i, 1024);
        b.br(c, loop, done);
    }

    // done: return sum * 1000 + evens.
    b.setBlock(done);
    {
        Reg scaled = b.binaryImm(Opcode::MulI, sum, 1000);
        Reg r = b.binary(Opcode::AddI, scaled, evens);
        b.ret(r);
    }

    verifyOrDie(module);
    std::printf("hand-built IR:\n%s\n",
                toString(module.function(main_id)).c_str());

    // Optimize + schedule for a 4-wide ideal machine, then time it.
    MachineConfig target = idealSuperscalar(4);
    OptimizeOptions oo;
    oo.level = OptLevel::RegAlloc;
    oo.alias = AliasLevel::Arrays;
    optimizeModule(module, target, oo);

    IssueEngine engine(target);
    RunResult r = makeExecutor(module)->runTimed("main", engine);

    std::printf("result          : %lld\n",
                static_cast<long long>(r.returnValue));
    std::printf("instructions    : %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("base cycles     : %.0f\n", engine.baseCycles());
    std::printf("instr per cycle : %.2f on %s\n",
                engine.instrPerBaseCycle(), target.name.c_str());

    auto counts = engine.issueCounts();
    Table t("\nIssue-width utilization (cycles issuing k instrs):");
    t.setHeader({"k", "cycles"});
    for (std::size_t k = 0; k < counts.size(); ++k)
        t.row()
            .cell(static_cast<long long>(k))
            .cell(static_cast<long long>(counts[k]));
    t.print();
    return 0;
}
