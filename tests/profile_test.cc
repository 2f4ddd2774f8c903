/**
 * @file
 * Cycle profiler tests: source-location threading through the
 * compiler, per-pc stall attribution in the issue engine, and the
 * prof::Profile artifact built on top of both.
 *
 * The heart of the suite is the reconciliation invariant: on every
 * machine model, the per-pc counters must sum exactly to the
 * aggregate StallBreakdown and to the machine's offered issue slots —
 * the profiler redistributes the aggregate, it never invents or loses
 * slots.
 */

#include <fstream>
#include <sstream>

#include "core/study/experiment.hh"
#include "core/study/profile.hh"
#include "ir/verifier.hh"
#include "sim/trap.hh"
#include "tests/helpers.hh"

namespace ilp {
namespace {

const char *kDotProd = R"MT(var int x[64];
var int y[64];

func main() : int {
    var int i;
    var int q = 0;
    for (i = 0; i < 64; i = i + 1) {
        x[i] = i * 3;
        y[i] = 64 - i;
    }
    for (i = 0; i < 64; i = i + 1) {
        q = q + x[i] * y[i];
    }
    return q;
}
)MT";

Workload
workload(const char *source)
{
    return Workload{"profile-test", "test program", source, 0, false,
                    1};
}

prof::Profile
profileOn(const MachineConfig &machine, int jobs = 1)
{
    Study study(jobs);
    Workload w = workload(kDotProd);
    return study.profiledRun(w, machine, defaultCompileOptions(w));
}

// ------------------------------------------------- SrcLoc threading

TEST(ProfileSrcLoc, FrontendStampsLocations)
{
    Module m = compileToIr(kDotProd);
    std::size_t known = 0, total = 0;
    for (const auto &f : m.functions()) {
        for (const auto &bb : f.blocks) {
            for (const auto &in : bb.instrs) {
                ++total;
                if (in.loc.known())
                    ++known;
            }
        }
    }
    EXPECT_GT(total, 0u);
    // Codegen stamps every emitted instruction from the statement or
    // expression that produced it; only synthesized scaffolding may
    // be unknown.
    EXPECT_GT(known, total / 2);
}

TEST(ProfileSrcLoc, OptimizationNeverInventsLocations)
{
    for (const MachineConfig &machine :
         {baseMachine(), superpipelined(4), idealSuperscalar(4)}) {
        Module m = compileToIr(kDotProd);
        const std::vector<SrcLoc> allowed = collectSourceLocs(m);
        OptimizeOptions oo;
        oo.level = OptLevel::RegAlloc;
        optimizeModule(m, machine, oo);
        EXPECT_TRUE(verifySourceLocs(m, allowed).empty())
            << "machine " << machine.name;
    }
}

TEST(ProfileSrcLoc, PcsAreLayoutOrderedAfterOptimize)
{
    Module m = compileToIr(kDotProd);
    OptimizeOptions oo;
    oo.level = OptLevel::RegAlloc;
    optimizeModule(m, superpipelined(2), oo);
    Pc next = 0;
    for (const auto &f : m.functions()) {
        for (const auto &bb : f.blocks) {
            for (const auto &in : bb.instrs)
                EXPECT_EQ(in.pc, next++);
        }
    }
    EXPECT_EQ(m.pcCount(), next);
}

// --------------------------------------------------- reconciliation

TEST(ProfileReconcile, PerPcCountersSumToAggregateOnEveryModel)
{
    const MachineConfig models[] = {
        baseMachine(),
        idealSuperscalar(2),
        idealSuperscalar(8),
        superpipelined(4),
        superpipelinedSuperscalar(2, 2),
        underpipelinedHalfIssue(),
        multiTitan(),
        cray1(),
        superscalarWithClassConflicts(4),
    };
    for (const MachineConfig &machine : models) {
        prof::Profile p = profileOn(machine);
        EXPECT_EQ(prof::checkReconciliation(p), "")
            << "machine " << machine.name;
        // Spelled out: issue counters recover the instruction count,
        // and used + lost slots fill the issue period exactly.
        EXPECT_EQ(p.total.issued, p.instructions)
            << "machine " << machine.name;
        EXPECT_EQ(p.total.slotTotal(), p.issueSlotsTotal)
            << "machine " << machine.name;
        for (std::size_t c = 0; c < kNumStallCauses; ++c)
            EXPECT_EQ(p.total.stallSlots[c], p.stalls.slots[c])
                << "machine " << machine.name << " cause " << c;
    }
}

TEST(ProfileReconcile, RollupsPreserveTotals)
{
    prof::Profile p = profileOn(superpipelined(4));
    prof::Counters line_sum;
    for (const auto &[line, c] : prof::rollupByLine(p))
        line_sum.add(c);
    prof::Counters func_sum;
    for (const prof::Row &r : prof::rollupByFunction(p))
        func_sum.add(r.counters);
    // Function rollup covers every pc; line rollup covers every pc
    // with a known source line.  Neither exceeds the grand total.
    prof::Counters unattr;
    unattr.add(p.unattributed());
    EXPECT_EQ(func_sum.slotTotal() + unattr.slotTotal(),
              p.total.slotTotal());
    EXPECT_LE(line_sum.slotTotal(), func_sum.slotTotal());
    EXPECT_GT(line_sum.issued, 0u);
}

TEST(ProfileReconcile, LoopRollupFindsTheHotLoop)
{
    prof::Profile p = profileOn(superpipelined(4));
    std::vector<prof::Row> loops = prof::rollupLoops(p);
    ASSERT_FALSE(loops.empty());
    // The dot-product loop dominates the run; the hottest loop must
    // hold the majority of all issue slots.
    EXPECT_GT(loops.front().counters.slotTotal(),
              p.total.slotTotal() / 4);
}

// ----------------------------------------------------- determinism

TEST(ProfileDeterminism, IndependentOfJobCount)
{
    prof::Profile one = profileOn(superpipelined(4), 1);
    prof::Profile eight = profileOn(superpipelined(4), 8);
    EXPECT_EQ(prof::toJson(one).dump(2), prof::toJson(eight).dump(2));
}

// -------------------------------------------------------- rendering

TEST(ProfileRender, AnnotatedListingInterleavesSource)
{
    prof::Profile p = profileOn(superpipelined(4));
    std::string listing =
        prof::renderAnnotatedListing(p, kDotProd, 5);
    EXPECT_NE(listing.find("== function main =="), std::string::npos);
    EXPECT_NE(listing.find("q = q + x[i] * y[i];"), std::string::npos);
    EXPECT_NE(listing.find("hottest loops"), std::string::npos);
    EXPECT_NE(listing.find("raw_latency"), std::string::npos);
}

TEST(ProfileRender, DiffReportsSpeedup)
{
    prof::Profile a = profileOn(baseMachine());
    prof::Profile b = profileOn(superpipelined(4));
    std::string diff = prof::renderDiff(a, b, 5);
    EXPECT_NE(diff.find("speedup B/A"), std::string::npos);
    EXPECT_NE(diff.find("largest per-line shifts"),
              std::string::npos);
}

TEST(ProfileRender, GoldenListingIsStable)
{
    std::ifstream golden(std::string(SS_SOURCE_DIR) +
                         "/tests/golden/profile_dotprod_sp4.txt");
    ASSERT_TRUE(golden.good())
        << "missing tests/golden/profile_dotprod_sp4.txt";
    std::stringstream want;
    want << golden.rdbuf();
    prof::Profile p = profileOn(superpipelined(4));
    EXPECT_EQ(prof::renderAnnotatedListing(p, kDotProd, 5),
              want.str());
}

// ------------------------------------------------------------- JSON

TEST(ProfileJson, SchemaAndProvenance)
{
    prof::Profile p = profileOn(superpipelined(4));
    Json doc = prof::toJson(p);
    const Json *schema = doc.at("meta.schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->asString(), "profile-v1");
    EXPECT_NE(doc.at("meta.version"), nullptr);
    EXPECT_NE(doc.at("meta.machine_hash"), nullptr);
    const Json *per_pc = doc.find("per_pc");
    ASSERT_NE(per_pc, nullptr);
    EXPECT_EQ(per_pc->size(), p.code.entries.size());
    // The document round-trips through the parser.
    Json back;
    std::string error;
    EXPECT_TRUE(Json::tryParse(doc.dump(2), back, &error)) << error;
}

TEST(ProfileJson, MachineHashDistinguishesConfigs)
{
    EXPECT_NE(baseMachine().specHash(), superpipelined(4).specHash());
    EXPECT_NE(superpipelined(2).specHash(),
              superpipelined(4).specHash());
    // The hash covers the spec, not the display name.
    MachineConfig renamed = superpipelined(4);
    renamed.name = "renamed";
    EXPECT_EQ(renamed.specHash(), superpipelined(4).specHash());
}

// ------------------------------------------------------ engine unit

TEST(ProfileEngine, DisabledCollectsNothing)
{
    Workload w = workload(kDotProd);
    Study study(1);
    RunOutcome out =
        study.timedRun(w, superpipelined(4), defaultCompileOptions(w));
    EXPECT_TRUE(out.pcCounters.empty());
}

TEST(ProfileEngine, TrappedRunThrows)
{
    const char *bad = R"MT(var int a[4];
func main() : int {
    var int i;
    for (i = 0; i < 100000000; i = i + 1) { a[i] = i; }
    return a[0];
}
)MT";
    Workload w{"profile-trap", "test program", bad, 0, false, 1};
    Study study(1);
    EXPECT_THROW(
        study.profiledRun(w, superpipelined(4),
                          defaultCompileOptions(w)),
        TrapException);
}

} // namespace
} // namespace ilp
