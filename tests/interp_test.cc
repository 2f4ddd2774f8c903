/** Tests for the functional simulator: memory, tracing, limits. */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "sim/interp.hh"
#include "tests/helpers.hh"

namespace ilp {
namespace {

/** A module with one raw main built by `fill` (no optimization). */
template <typename Fill>
Module
makeMain(Fill fill, bool returns_value = true)
{
    Module m;
    Function &f = m.function(m.addFunction("main"));
    f.returnsValue = returns_value;
    IrBuilder b(f);
    fill(m, f, b);
    return m;
}

TEST(InterpTest, MemoryRoundTrip)
{
    Module m = makeMain([](Module &mod, Function &, IrBuilder &b) {
        std::int64_t g = mod.addGlobal("g", 2, false);
        Reg base = b.li(g);
        Reg v = b.li(1234);
        b.store(Opcode::StoreW, base, 8, v);
        Reg w = b.load(Opcode::LoadW, base, 8);
        b.ret(w);
    });
    Interpreter interp(m);
    EXPECT_EQ(interp.run().returnValue, 1234u);
}

TEST(InterpTest, GlobalInitializersVisible)
{
    Module m = makeMain([](Module &mod, Function &, IrBuilder &b) {
        mod.addGlobal("t", 3, false);
        mod.setGlobalInit("t", {11, 22, 33});
        Reg base = b.li(mod.findGlobal("t")->address);
        Reg a = b.load(Opcode::LoadW, base, 0);
        Reg c = b.load(Opcode::LoadW, base, 16);
        Reg s = b.binary(Opcode::AddI, a, c);
        b.ret(s);
    });
    Interpreter interp(m);
    EXPECT_EQ(interp.run().returnValue, 44u);
}

TEST(InterpTest, TraceMatchesExecutedInstructions)
{
    Module m = makeMain([](Module &, Function &, IrBuilder &b) {
        Reg a = b.li(1);
        Reg c = b.binaryImm(Opcode::AddI, a, 2);
        b.ret(c);
    });
    Interpreter interp(m);
    TraceBuffer buf;
    RunResult r = interp.run("main", &buf);
    EXPECT_EQ(r.instructions, 3u);
    ASSERT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf.trace()[0].op, Opcode::LiI);
    EXPECT_EQ(buf.trace()[1].op, Opcode::AddI);
    EXPECT_EQ(buf.trace()[1].numSrcs, 1u);
    EXPECT_EQ(buf.trace()[2].op, Opcode::Ret);
}

TEST(InterpTest, TraceRecordsAddresses)
{
    std::int64_t addr = 0;
    Module m = makeMain([&](Module &mod, Function &, IrBuilder &b) {
        addr = mod.addGlobal("g", 1, false);
        Reg base = b.li(addr);
        Reg v = b.li(5);
        b.store(Opcode::StoreW, base, 0, v);
        Reg w = b.load(Opcode::LoadW, base, 0);
        b.ret(w);
    });
    Interpreter interp(m);
    TraceBuffer buf;
    interp.run("main", &buf);
    bool saw_store = false, saw_load = false;
    for (const auto &di : buf.trace()) {
        if (isStore(di.op)) {
            saw_store = true;
            EXPECT_EQ(di.addr, addr);
        }
        if (isLoad(di.op)) {
            saw_load = true;
            EXPECT_EQ(di.addr, addr);
        }
    }
    EXPECT_TRUE(saw_store);
    EXPECT_TRUE(saw_load);
}

TEST(InterpTest, ClassProfileCountsClasses)
{
    Module m = makeMain([](Module &, Function &, IrBuilder &b) {
        Reg a = b.li(2);
        Reg c = b.binary(Opcode::MulI, a, a);
        Reg d = b.binaryImm(Opcode::AddI, c, 1);
        b.ret(d);
    });
    Interpreter interp(m);
    ClassProfileSink profile;
    interp.run("main", &profile);
    const auto &counts = profile.counts();
    EXPECT_EQ(counts[static_cast<int>(InstrClass::Move)], 1u);
    EXPECT_EQ(counts[static_cast<int>(InstrClass::IntMul)], 1u);
    EXPECT_EQ(counts[static_cast<int>(InstrClass::IntAdd)], 1u);
    EXPECT_EQ(counts[static_cast<int>(InstrClass::Branch)], 1u);
    EXPECT_EQ(profile.total(), 4u);
}

TEST(InterpTest, FuelLimitStopsRunaways)
{
    Module m = makeMain(
        [](Module &, Function &f, IrBuilder &b) {
            BlockId loop = b.makeBlock();
            b.jmp(loop);
            b.setBlock(loop);
            b.jmp(loop); // infinite
            (void)f;
        },
        /*returns_value=*/false);
    InterpOptions opts;
    opts.fuel = 10000;
    Interpreter interp(m, opts);
    RunResult r = interp.run();
    ASSERT_TRUE(r.trapped());
    EXPECT_EQ(r.trap.code, ErrCode::TrapFuelExhausted);
    EXPECT_EQ(r.trap.function, "main");
    EXPECT_GE(r.trap.instruction, 10000u);
}

TEST(InterpTest, NullDereferenceFaults)
{
    Module m = makeMain([](Module &, Function &, IrBuilder &b) {
        Reg z = b.li(0);
        Reg v = b.load(Opcode::LoadW, z, 0);
        b.ret(v);
    });
    Interpreter interp(m);
    RunResult r = interp.run();
    ASSERT_TRUE(r.trapped());
    EXPECT_EQ(r.trap.code, ErrCode::TrapOutOfBoundsMemory);
    EXPECT_EQ(r.trap.function, "main");
}

TEST(InterpTest, MisalignedAccessFaults)
{
    Module m = makeMain([](Module &mod, Function &, IrBuilder &b) {
        std::int64_t g = mod.addGlobal("g", 1, false);
        Reg base = b.li(g + 4); // misaligned
        Reg v = b.load(Opcode::LoadW, base, 0);
        b.ret(v);
    });
    Interpreter interp(m);
    RunResult r = interp.run();
    ASSERT_TRUE(r.trapped());
    EXPECT_EQ(r.trap.code, ErrCode::TrapMisalignedMemory);
}

TEST(InterpTest, DivisionByZeroFaults)
{
    Module m = makeMain([](Module &, Function &, IrBuilder &b) {
        Reg a = b.li(5);
        Reg z = b.li(0);
        Reg q = b.binary(Opcode::DivI, a, z);
        b.ret(q);
    });
    Interpreter interp(m);
    RunResult r = interp.run();
    ASSERT_TRUE(r.trapped());
    EXPECT_EQ(r.trap.code, ErrCode::TrapDivideByZero);
    EXPECT_EQ(r.trap.function, "main");
    EXPECT_NE(r.trap.format().find("E0"), std::string::npos);
}

TEST(InterpTest, DeepRecursionHitsDepthLimit)
{
    const char *src = R"(
        func f(int n) : int { return f(n + 1); }
        func main() : int { return f(0); })";
    Module m = compileToIr(src);
    OptimizeOptions oo;
    oo.level = OptLevel::None;
    optimizeModule(m, baseMachine(), oo);
    Interpreter interp(m);
    RunResult r = interp.run();
    ASSERT_TRUE(r.trapped());
    EXPECT_TRUE(r.trap.code == ErrCode::TrapCallDepthExceeded ||
                r.trap.code == ErrCode::TrapStackOverflow)
        << r.trap.format();
    // The faulting frame is the recursive callee, not main.
    EXPECT_EQ(r.trap.function, "f");
}

TEST(InterpTest, InterpreterSurvivesATrap)
{
    // Containment: after a trapping run the process (and even the
    // same interpreter) is usable.
    Module m = makeMain([](Module &, Function &, IrBuilder &b) {
        Reg a = b.li(5);
        Reg z = b.li(0);
        Reg q = b.binary(Opcode::DivI, a, z);
        b.ret(q);
    });
    Interpreter interp(m);
    ASSERT_TRUE(interp.run().trapped());
    RunResult again = interp.run();
    EXPECT_TRUE(again.trapped());
    EXPECT_EQ(again.trap.code, ErrCode::TrapDivideByZero);
}

TEST(InterpTest, CallTracePreservesFetchOrder)
{
    const char *src = R"(
        func three() : int { return 3; }
        func main() : int { return three() + 1; })";
    Module m = compileToIr(src);
    OptimizeOptions oo;
    oo.level = OptLevel::None;
    optimizeModule(m, baseMachine(), oo);
    Interpreter interp(m);
    TraceBuffer buf;
    interp.run("main", &buf);
    // Expect ... Call, [callee: li/ret...], then caller's add.
    int call_at = -1, ret_at = -1;
    for (std::size_t i = 0; i < buf.size(); ++i) {
        if (buf.trace()[i].op == Opcode::Call)
            call_at = static_cast<int>(i);
        if (buf.trace()[i].op == Opcode::Ret && ret_at < 0)
            ret_at = static_cast<int>(i);
    }
    ASSERT_GE(call_at, 0);
    ASSERT_GT(ret_at, call_at);
}

TEST(InterpTest, RunIsRepeatable)
{
    Module m = compileToIr(
        "var int g; func main() : int { g = g + 1; return g; }");
    OptimizeOptions oo;
    oo.level = OptLevel::None;
    optimizeModule(m, baseMachine(), oo);
    Interpreter a(m);
    Interpreter c(m);
    EXPECT_EQ(a.run().returnValue, c.run().returnValue);
    // Same interpreter reused keeps memory state.
    EXPECT_EQ(a.run().returnValue, 2u);
}

TEST(MemoryTest, ReadGlobalHelper)
{
    Module m;
    m.addGlobal("xs", 3, false);
    m.setGlobalInit("xs", {9, 8, 7});
    Memory mem(m);
    EXPECT_EQ(mem.readGlobal(m, "xs", 0), 9u);
    EXPECT_EQ(mem.readGlobal(m, "xs", 2), 7u);
}

using AddSrcTest = test::ThrowingErrors;

TEST_F(AddSrcTest, FifthSourceIsAnAssertionNotASilentDrop)
{
    DynInstr di;
    for (Reg r = 1; r <= 4; ++r)
        di.addSrc(r);
    EXPECT_EQ(di.numSrcs, 4u);
    EXPECT_THROW(di.addSrc(5), FatalError);
    // kNoReg stays a quiet no-op at any arity.
    di.numSrcs = 4;
    EXPECT_NO_THROW(di.addSrc(kNoReg));
}

TEST(MemoryTest, StackBaseAboveGlobals)
{
    Module m;
    m.addGlobal("a", 128, false);
    Memory mem(m);
    EXPECT_GE(mem.stackBase(), m.globalEnd());
    EXPECT_GT(mem.limit(), mem.stackBase());
}

} // namespace
} // namespace ilp
