/** The issue engine against its oracle, the naive minor-cycle
 *  stepper (sim/issue_ref.hh): every timing result must agree exactly
 *  — cycles, stall breakdown, issue histogram, class counts, per-pc
 *  counters, completion tail and the issue timeline — on all eight
 *  workloads through the fused bytecode path, and on seeded random
 *  streams across the machine taxonomy, unit conflicts and branch
 *  fences included. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/machine/models.hh"
#include "core/study/driver.hh"
#include "core/study/experiment.hh"
#include "sim/exec.hh"
#include "sim/issue.hh"
#include "sim/issue_ref.hh"

namespace ilp {
namespace {

/** The taxonomy, one machine per kind the engine has a path for. */
std::vector<MachineConfig>
taxonomy()
{
    MachineConfig fenced = superpipelinedSuperscalar(2, 2);
    fenced.name = "ss(2,2),fenced";
    fenced.issueAcrossBranches = false;
    return {idealSuperscalar(4),
            superpipelined(4),
            superpipelinedSuperscalar(2, 2),
            multiTitan(),
            cray1(),
            underpipelinedHalfIssue(),
            underpipelinedSlowClock(),
            superscalarWithClassConflicts(4, 2, 1),
            fenced};
}

/** Everything the two models must agree on. */
void
expectSameTiming(const IssueEngine &engine, const RefIssueStepper &ref,
                 const std::string &what)
{
    EXPECT_EQ(engine.instructions(), ref.instructions()) << what;
    EXPECT_EQ(engine.minorCycles(), ref.minorCycles()) << what;
    EXPECT_EQ(engine.issuePeriodMinorCycles(),
              ref.issuePeriodMinorCycles())
        << what;
    EXPECT_EQ(engine.completionTailMinorCycles(),
              ref.completionTailMinorCycles())
        << what;
    EXPECT_EQ(engine.stallBreakdown().slots, ref.stallBreakdown().slots)
        << what;
    EXPECT_EQ(engine.issueCounts(), ref.issueCounts()) << what;
    EXPECT_EQ(engine.classIssued(), ref.classIssued()) << what;
}

void
expectSameProfile(const IssueEngine &engine, const RefIssueStepper &ref,
                  std::size_t pcCount, const std::string &what)
{
    const std::vector<PcCounters> a = engine.profileCounters();
    const std::vector<PcCounters> b = ref.profileCounters(pcCount);
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t pc = 0; pc < a.size(); ++pc) {
        EXPECT_EQ(a[pc].issued, b[pc].issued) << what << " pc " << pc;
        EXPECT_EQ(a[pc].stallSlots, b[pc].stallSlots)
            << what << " pc " << pc;
    }
}

/** Feeds the stepper and logs the events of its first `limit`
 *  instructions. */
class SteppedLog final : public TraceSink
{
  public:
    SteppedLog(RefIssueStepper &ref, std::size_t limit)
        : ref_(ref), limit_(limit)
    {
    }
    void
    emit(const DynInstr &di) override
    {
        ref_.emit(di);
        if (events.size() < limit_)
            events.push_back(ref_.lastEvents());
    }

    std::vector<RefIssueStepper::Events> events;

  private:
    RefIssueStepper &ref_;
    std::size_t limit_;
};

void
expectSameTimeline(const IssueEngine &engine,
                   const std::vector<RefIssueStepper::Events> &events,
                   const std::string &what)
{
    const std::vector<IssueEvent> &timeline = engine.timeline();
    ASSERT_EQ(timeline.size(), events.size()) << what;
    for (std::size_t i = 0; i < timeline.size(); ++i) {
        ASSERT_EQ(timeline[i].cycle, events[i].issue)
            << what << " #" << i;
        ASSERT_EQ(timeline[i].cycle + timeline[i].latencyMinor,
                  events[i].complete)
            << what << " #" << i;
    }
}

TEST(IssueRefTest, FusedEngineMatchesStepperOnEveryWorkload)
{
    constexpr std::size_t kTimeline = 4096;
    // One compile per workload; every machine times the same module.
    // The engine runs on the fused path sweeps use (runTimed), the
    // stepper on the generic TraceSink path.
    for (const Workload &w : allWorkloads()) {
        const Module module = compileWorkload(
            w.source, baseMachine(), defaultCompileOptions(w));
        std::unique_ptr<Executor> exec =
            makeExecutor(module, ExecBackend::Bytecode);
        for (const MachineConfig &m : taxonomy()) {
            const std::string what = w.name + " on " + m.name;
            IssueEngine engine(m);
            exec->runTimed("main", engine);
            RefIssueStepper ref(m);
            SteppedLog log(ref, kTimeline);
            exec->run("main", &log);
            expectSameTiming(engine, ref, what);

            // The observed path (profile and timeline on) too.
            IssueEngine observed(m);
            observed.enableProfile(module.pcCount());
            observed.recordTimeline(kTimeline);
            exec->runTimed("main", observed);
            expectSameTiming(observed, ref, what + " (observed)");
            expectSameProfile(observed, ref, module.pcCount(), what);
            expectSameTimeline(observed, log.events, what);
        }
    }
}

/** splitmix64: a portable, seedable stream of draws. */
struct Draws
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    int below(int n) { return static_cast<int>(next() % n); }
};

/** A random machine anywhere in the taxonomy: width, degree,
 *  latencies, an optional unit table and branch fencing. */
MachineConfig
randomMachine(Draws &d)
{
    MachineConfig m;
    m.name = "random";
    m.issueWidth = 1 + d.below(4);
    m.pipelineDegree = 1 + d.below(3);
    for (int &l : m.latency)
        l = 1 + d.below(4);
    m.issueAcrossBranches = d.below(3) != 0;
    if (d.below(2) == 0) {
        // Partition the classes over 1-4 units of random shape.
        const int nunits = 1 + d.below(4);
        for (int u = 0; u < nunits; ++u) {
            FuncUnit unit;
            unit.name = "u" + std::to_string(u);
            unit.multiplicity = 1 + d.below(3);
            unit.issueLatency = 1 + d.below(3);
            m.units.push_back(unit);
        }
        for (std::size_t c = 0; c < kNumInstrClasses; ++c)
            m.units[static_cast<std::size_t>(d.below(nunits))]
                .classes.push_back(static_cast<InstrClass>(c));
    }
    m.validate();
    return m;
}

/** A random stream over a few registers, words and pcs, so RAW and
 *  memory dependences, unit contention and fences all occur. */
std::vector<DynInstr>
randomStream(Draws &d, std::size_t pcCount)
{
    std::vector<DynInstr> out(static_cast<std::size_t>(50 + d.below(250)));
    for (DynInstr &di : out) {
        di.op = static_cast<Opcode>(d.below(static_cast<int>(kNumOpcodes)));
        if (d.below(5) != 0)
            di.dst = static_cast<Reg>(d.below(12));
        const int nsrcs = d.below(5);
        for (int i = 0; i < nsrcs; ++i)
            di.addSrc(static_cast<Reg>(d.below(14)));
        if (isMem(di.op))
            di.addr = kWordBytes * d.below(6);
        di.pc = d.below(8) == 0 ? kNoPc
                                : static_cast<Pc>(d.below(
                                      static_cast<int>(pcCount) + 4));
    }
    return out;
}

TEST(IssueRefTest, EngineMatchesStepperOnRandomStreams)
{
    constexpr std::size_t kPcs = 40;
    for (std::uint64_t seed = 1; seed <= 1200; ++seed) {
        Draws d{seed};
        const MachineConfig m = randomMachine(d);
        const std::vector<DynInstr> stream = randomStream(d, kPcs);
        IssueEngine engine(m);
        engine.enableProfile(kPcs);
        engine.recordTimeline(stream.size());
        RefIssueStepper ref(m);
        SteppedLog log(ref, stream.size());
        for (const DynInstr &di : stream) {
            engine.emit(di);
            log.emit(di);
        }
        const std::string what = "seed " + std::to_string(seed);
        expectSameTiming(engine, ref, what);
        expectSameProfile(engine, ref, kPcs, what);
        expectSameTimeline(engine, log.events, what);
        if (::testing::Test::HasFailure())
            return; // one seed's report is enough
    }
}

TEST(IssueRefTest, StepperChargesEachCycleWhereItIsLost)
{
    // CRAY-1: a load (latency 11) feeding an add.  The add waits in
    // cycles 1..10; the stepper charges each of those ten cycles' one
    // slot to latency, then drains nothing (the add fills cycle 11).
    RefIssueStepper ref(cray1());
    DynInstr load;
    load.op = Opcode::LoadW;
    load.dst = 1;
    load.addr = 64;
    DynInstr add;
    add.op = Opcode::AddI;
    add.dst = 2;
    add.addSrc(1);
    ref.emit(load);
    EXPECT_EQ(ref.lastEvents().issue, 0u);
    EXPECT_EQ(ref.lastEvents().complete, 11u);
    ref.emit(add);
    EXPECT_EQ(ref.lastEvents().issue, 11u);
    EXPECT_EQ(ref.stallBreakdown()[StallCause::RawLatency], 10u);
    EXPECT_EQ(ref.stallBreakdown()[StallCause::FrontendDrain], 0u);
    EXPECT_EQ(ref.minorCycles(), 14u);
}

} // namespace
} // namespace ilp
