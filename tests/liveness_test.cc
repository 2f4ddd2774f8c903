/** Tests for src/ir/liveness. */

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "frontend/compile.hh"
#include "ir/builder.hh"
#include "ir/liveness.hh"
#include "opt/passes.hh"
#include "workloads/workloads.hh"

namespace ilp {
namespace {

TEST(LivenessTest, StraightLineUseKillsLiveness)
{
    Module m;
    Function &f = m.function(m.addFunction("f"));
    f.returnsValue = true;
    IrBuilder b(f);
    Reg a = b.li(1);
    Reg c = b.binaryImm(Opcode::AddI, a, 2);
    b.ret(c);
    Liveness live(f);
    // Nothing is live across the (single) block's boundaries.
    EXPECT_FALSE(live.isLiveIn(0, a));
    EXPECT_FALSE(live.isLiveOut(0, a));
    EXPECT_FALSE(live.crossesBlocks(a));
}

TEST(LivenessTest, ValueLiveAcrossBlocks)
{
    Module m;
    Function &f = m.function(m.addFunction("f"));
    f.returnsValue = true;
    IrBuilder b(f);
    BlockId next = b.makeBlock();
    Reg a = b.li(7);
    b.jmp(next);
    b.setBlock(next);
    b.ret(a);
    Liveness live(f);
    EXPECT_TRUE(live.isLiveOut(0, a));
    EXPECT_TRUE(live.isLiveIn(next, a));
    EXPECT_TRUE(live.crossesBlocks(a));
}

TEST(LivenessTest, LoopCarriedValueIsLiveAroundTheLoop)
{
    // bb0: x = 1; jmp bb1
    // bb1: y = x + 0; br y bb1 bb2   (x live around the back edge)
    // bb2: ret y
    Module m;
    Function &f = m.function(m.addFunction("f"));
    f.returnsValue = true;
    IrBuilder b(f);
    BlockId loop = b.makeBlock();
    BlockId exit = b.makeBlock();
    Reg x = b.li(1);
    b.jmp(loop);
    b.setBlock(loop);
    Reg y = b.binaryImm(Opcode::AddI, x, 0);
    b.br(y, loop, exit);
    b.setBlock(exit);
    b.ret(y);
    Liveness live(f);
    EXPECT_TRUE(live.isLiveIn(loop, x));
    EXPECT_TRUE(live.isLiveOut(loop, x));  // back edge keeps x alive
    EXPECT_TRUE(live.isLiveOut(loop, y));  // used in exit
    EXPECT_FALSE(live.isLiveIn(exit, x));
}

TEST(LivenessTest, RedefinitionEndsRange)
{
    // bb0: a = 1; jmp bb1.  bb1: a2 uses a; a = 2 would be a new vreg
    // in this IR, so emulate: use distinct regs and check def kills.
    Module m;
    Function &f = m.function(m.addFunction("f"));
    f.returnsValue = true;
    IrBuilder b(f);
    BlockId second = b.makeBlock();
    Reg a = b.li(1);
    b.jmp(second);
    b.setBlock(second);
    // Redefine a before any use in this block: a is NOT live-in.
    b.emit(Instr::li(a, 5));
    b.ret(a);
    Liveness live(f);
    EXPECT_FALSE(live.isLiveIn(second, a));
    EXPECT_FALSE(live.isLiveOut(0, a));
}

TEST(LivenessTest, BranchConditionIsAUse)
{
    Module m;
    Function &f = m.function(m.addFunction("f"));
    IrBuilder b(f);
    BlockId t = b.makeBlock();
    BlockId e = b.makeBlock();
    Reg c = b.li(0);
    b.br(c, t, e);
    b.setBlock(t);
    b.ret();
    b.setBlock(e);
    b.ret();
    Liveness live(f);
    // c is used by the terminator of bb0 only.
    EXPECT_FALSE(live.isLiveOut(0, c));
    EXPECT_FALSE(live.isLiveIn(t, c));
}

TEST(LivenessTest, CallArgumentsAreUses)
{
    Module m;
    FuncId callee_id = m.addFunction("callee");
    {
        Function &callee = m.function(callee_id);
        IrBuilder cb(callee);
        callee.paramRegs = {callee.newVirtReg()};
        callee.paramIsFloat = {false};
        cb.ret();
    }
    Function &f = m.function(m.addFunction("f"));
    IrBuilder b(f);
    BlockId second = b.makeBlock();
    Reg a = b.li(3);
    b.jmp(second);
    b.setBlock(second);
    b.callVoid(callee_id, {a});
    b.ret();
    Liveness live(f);
    EXPECT_TRUE(live.isLiveIn(second, a));
    EXPECT_TRUE(live.isLiveOut(0, a));
}

/**
 * The oracle: the dense dataflow Liveness used before its sets were
 * bit-packed.  One vector<bool> per block and set, each successor
 * list rebuilt on every visit, one register at a time.
 */
struct DenseLiveness
{
    std::vector<std::vector<bool>> liveIn, liveOut;

    explicit DenseLiveness(const Function &func)
    {
        const std::size_t nb = func.blocks.size();
        const std::size_t nr = func.numVirtRegs;
        liveIn.assign(nb, std::vector<bool>(nr, false));
        liveOut.assign(nb, std::vector<bool>(nr, false));
        std::vector<std::vector<bool>> use(nb, std::vector<bool>(nr));
        std::vector<std::vector<bool>> def(nb, std::vector<bool>(nr));
        for (const auto &bb : func.blocks) {
            for (const auto &in : bb.instrs) {
                in.forEachSrc([&](Reg r) {
                    if (!def[bb.id][r])
                        use[bb.id][r] = true;
                });
                if (in.dst != kNoReg)
                    def[bb.id][in.dst] = true;
            }
        }
        bool changed = true;
        while (changed) {
            changed = false;
            for (std::size_t bi = nb; bi-- > 0;) {
                auto &out = liveOut[bi];
                for (BlockId s : func.blocks[bi].successors()) {
                    for (std::size_t r = 0; r < nr; ++r) {
                        if (liveIn[s][r] && !out[r]) {
                            out[r] = true;
                            changed = true;
                        }
                    }
                }
                auto &in = liveIn[bi];
                for (std::size_t r = 0; r < nr; ++r) {
                    bool v = use[bi][r] || (out[r] && !def[bi][r]);
                    if (v != in[r]) {
                        in[r] = v;
                        changed = true;
                    }
                }
            }
        }
    }

    bool
    crossesBlocks(Reg r) const
    {
        for (std::size_t b = 0; b < liveIn.size(); ++b) {
            if (liveIn[b][r] || liveOut[b][r])
                return true;
        }
        return false;
    }
};

/** Every block's live-in and live-out bit, and crossesBlocks, of
 *  every register agree with the oracle; no bit past numVirtRegs is
 *  set.  Reports the first disagreement only. */
void
expectMatchesOracle(const Function &f, const std::string &what)
{
    const DenseLiveness ref(f);
    const Liveness live(f);
    const std::uint32_t nr = f.numVirtRegs;
    ASSERT_EQ(live.words(), (nr + 63) / 64) << what;
    for (const auto &bb : f.blocks) {
        for (Reg r = 0; r < nr; ++r) {
            ASSERT_EQ(live.isLiveIn(bb.id, r), ref.liveIn[bb.id][r])
                << what << ": live-in of v" << r << " at bb" << bb.id;
            ASSERT_EQ(live.isLiveOut(bb.id, r), ref.liveOut[bb.id][r])
                << what << ": live-out of v" << r << " at bb" << bb.id;
        }
        auto inRange = [&](Reg r) {
            ASSERT_LT(r, nr) << what << ": stray bit at bb" << bb.id;
        };
        Liveness::forEach(live.liveInWords(bb.id), live.words(), inRange);
        Liveness::forEach(live.liveOutWords(bb.id), live.words(),
                          inRange);
    }
    for (Reg r = 0; r < nr; ++r)
        ASSERT_EQ(live.crossesBlocks(r), ref.crossesBlocks(r))
            << what << ": crossesBlocks(v" << r << ")";
}

/**
 * A random function of `nregs` virtual registers: 1-10 blocks of
 * random definitions and uses (immediates, register-register and
 * register-immediate adds, calls with up to three arguments), each
 * ending in a Br, Jmp or Ret whose targets may point backwards.  With
 * three or more blocks, no terminator targets the last block, so it
 * is unreachable.
 */
Function
randomFunction(std::uint32_t nregs, std::mt19937 &rng)
{
    Function f;
    f.name = "random";
    f.numVirtRegs = nregs;
    const int nblocks = 1 + static_cast<int>(rng() % 10);
    for (int b = 0; b < nblocks; ++b)
        f.addBlock();
    const int reachable = nblocks >= 3 ? nblocks - 1 : nblocks;
    auto reg = [&] { return static_cast<Reg>(rng() % nregs); };
    auto target = [&] {
        return static_cast<BlockId>(rng() % static_cast<unsigned>(
                                               reachable));
    };
    for (auto &bb : f.blocks) {
        const int n = static_cast<int>(rng() % 8);
        for (int i = 0; i < n; ++i) {
            const Reg dst = reg();
            const Reg a = reg();
            const Reg b = reg();
            switch (rng() % 4) {
              case 0:
                bb.instrs.push_back(Instr::li(dst, 7));
                break;
              case 1:
                bb.instrs.push_back(
                    Instr::binaryImm(Opcode::AddI, dst, a, 1));
                break;
              case 2:
                bb.instrs.push_back(
                    Instr::binary(Opcode::AddI, dst, a, b));
                break;
              default: {
                std::vector<Reg> args(rng() % 4);
                for (Reg &arg : args)
                    arg = reg();
                bb.instrs.push_back(
                    Instr::call(0, std::move(args),
                                rng() % 2 ? dst : kNoReg));
                break;
              }
            }
        }
        switch (rng() % 3) {
          case 0: {
            const Reg c = reg();
            const BlockId t = target();
            bb.instrs.push_back(Instr::br(c, t, target()));
            break;
          }
          case 1:
            bb.instrs.push_back(Instr::jmp(target()));
            break;
          default:
            bb.instrs.push_back(Instr::ret(rng() % 2 ? reg() : kNoReg));
            break;
        }
    }
    return f;
}

TEST(LivenessOracleTest, RandomFunctionsAroundWordBoundaries)
{
    std::mt19937 rng(20260419);
    for (std::uint32_t nregs : {1u, 63u, 64u, 65u, 128u, 129u}) {
        for (int trial = 0; trial < 300; ++trial) {
            const Function f = randomFunction(nregs, rng);
            expectMatchesOracle(f, std::to_string(nregs) +
                                       " registers, trial " +
                                       std::to_string(trial));
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(LivenessOracleTest, WorkloadFunctionsAfterEveryPass)
{
    const RegFileLayout layout;
    for (const Workload &w : allWorkloads()) {
        for (int factor : {1, 10}) {
            UnrollOptions unroll;
            unroll.factor = factor;
            Module m = compileToIr(w.source, unroll, w.name);
            for (Function &f : m.functions()) {
                const std::string where = w.name + "/u" +
                                          std::to_string(factor) + "/" +
                                          f.name + " after ";
                auto check = [&](const char *pass) {
                    expectMatchesOracle(f, where + pass);
                };
                check("codegen");
                foldConstants(f);
                check("foldConstants");
                localValueNumbering(f);
                check("localValueNumbering");
                globalCopyPropagation(f);
                check("globalCopyPropagation");
                eliminateDeadCode(f);
                check("eliminateDeadCode");
                hoistLoopInvariants(m, f);
                check("hoistLoopInvariants");
                reassociate(f);
                check("reassociate");
                allocateHomeRegisters(f, layout);
                check("allocateHomeRegisters");
                strengthReduceLoops(f);
                check("strengthReduceLoops");
                if (::testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}

} // namespace
} // namespace ilp
