/** End-to-end telemetry: RunOutcome stats trees, the stall
 *  attribution invariant on real workloads, compile-phase records,
 *  and the Chrome tracing document of a traced run. */

#include <gtest/gtest.h>

#include <set>

#include "core/machine/models.hh"
#include "core/study/driver.hh"
#include "core/study/telemetry.hh"
#include "support/trace.hh"

namespace ilp {
namespace {

Workload
tinyWorkload()
{
    const char *src = R"(
var real a[256];
func main() : int {
    var int i;
    var real t;
    t = 0.5;
    for (i = 0; i < 256; i = i + 1) { a[i] = real(i) * t; }
    for (i = 0; i < 255; i = i + 1) { a[i] = a[i] + a[i + 1]; }
    return int(a[100] * 10.0);
})";
    return Workload{"tiny", "telemetry test program", src, 0, false,
                    1};
}

RunTelemetryOptions
fullTelemetry()
{
    RunTelemetryOptions t;
    t.collectStats = true;
    t.timelineLimit = 4096;
    return t;
}

/** The number at a dotted path of a stats tree; `fallback` when
 *  absent. */
double
number(const Json &stats, const std::string &dotted,
       double fallback = 0.0)
{
    const Json *j = stats.at(dotted);
    return j && j->isNumber() ? j->asNumber() : fallback;
}

/** The acceptance invariant: per-cause stall slots sum exactly to the
 *  lost issue slots, and lost + issued slots cover the issue period. */
void
expectStallAccountingExact(const Json &s)
{
    double lost = number(s, "issue.lost_issue_slots", -1);
    double causes = number(s, "issue.stall.raw_latency") +
                    number(s, "issue.stall.unit_conflict") +
                    number(s, "issue.stall.branch_fence") +
                    number(s, "issue.stall.frontend_drain");
    EXPECT_GE(lost, 0.0);
    EXPECT_DOUBLE_EQ(causes, lost);

    double total = number(s, "issue.issue_slots_total", -1);
    double instrs = number(s, "issue.instructions", -1);
    EXPECT_DOUBLE_EQ(instrs + lost, total);
}

TEST(TelemetryTest, DefaultRunCollectsNothing)
{
    Workload w = tinyWorkload();
    RunOutcome out = runWorkload(w, idealSuperscalar(4),
                                 defaultCompileOptions(w));
    EXPECT_TRUE(out.stats.isNull());
    EXPECT_TRUE(out.issueTimeline.empty());
}

TEST(TelemetryTest, StallSlotsSumToLostSlots)
{
    Workload w = tinyWorkload();
    CompileOptions o = defaultCompileOptions(w);
    for (const MachineConfig &m :
         {idealSuperscalar(4), superpipelined(4), multiTitan(),
          cray1(), superscalarWithClassConflicts(4),
          superpipelinedSuperscalar(2, 2)}) {
        RunOutcome out = runWorkload(w, m, o, fullTelemetry());
        SCOPED_TRACE(m.name);
        ASSERT_TRUE(out.stats.isObject());
        expectStallAccountingExact(out.stats);
    }
}

TEST(TelemetryTest, StallSlotsSumOnSuiteWorkloads)
{
    // The acceptance check on the real benchmark suite, on the
    // headline machine.
    for (const auto &w : allWorkloads()) {
        SCOPED_TRACE(w.name);
        RunOutcome out =
            runWorkload(w, idealSuperscalar(4),
                        defaultCompileOptions(w), fullTelemetry());
        expectStallAccountingExact(out.stats);
    }
}

TEST(TelemetryTest, SnapshotAgreesWithOutcome)
{
    Workload w = tinyWorkload();
    RunOutcome out = runWorkload(w, multiTitan(),
                                 defaultCompileOptions(w),
                                 fullTelemetry());
    EXPECT_DOUBLE_EQ(number(out.stats, "run.instructions"),
                     static_cast<double>(out.instructions));
    EXPECT_DOUBLE_EQ(number(out.stats, "run.base_cycles"), out.cycles);
    EXPECT_DOUBLE_EQ(number(out.stats, "run.ipc"), out.ipc());
    // Cache accounting is internally consistent.
    EXPECT_DOUBLE_EQ(number(out.stats, "cache.hits") +
                         number(out.stats, "cache.misses"),
                     number(out.stats, "cache.accesses"));
    // Dynamic mix covers every executed instruction.
    EXPECT_DOUBLE_EQ(number(out.stats, "mix.total"),
                     static_cast<double>(out.instructions));
}

TEST(TelemetryTest, CompilePhasesRecorded)
{
    Workload w = tinyWorkload();
    RunOutcome out = runWorkload(w, idealSuperscalar(4),
                                 defaultCompileOptions(w),
                                 fullTelemetry());
    // The frontend and the mandatory pipeline phases always run.
    EXPECT_NE(out.stats.at("compile.phase.frontend"), nullptr);
    EXPECT_NE(out.stats.at("compile.phase.regalloc"), nullptr);
    EXPECT_NE(out.stats.at("compile.phase.sched"), nullptr);
    EXPECT_GT(number(out.stats, "compile.sched_fill_rate"), 0.0);
    EXPECT_LE(number(out.stats, "compile.sched_fill_rate"), 1.0);
}

TEST(TelemetryTest, TimelineRespectsLimit)
{
    // With stats the fused runTimed path also feeds the data cache;
    // without, it drives the engine alone (what a traced `ssim run`
    // takes).  Both must capture the same events.
    Workload w = tinyWorkload();
    RunTelemetryOptions t;
    t.collectStats = true;
    t.timelineLimit = 100;
    RunOutcome stats = runWorkload(w, idealSuperscalar(4),
                                   defaultCompileOptions(w), t);
    EXPECT_EQ(stats.issueTimeline.size(), 100u);
    EXPECT_GT(stats.timelineDropped, 0u);
    EXPECT_EQ(stats.issueTimeline.size() + stats.timelineDropped,
              stats.instructions);

    t.collectStats = false;
    RunOutcome plain = runWorkload(w, idealSuperscalar(4),
                                   defaultCompileOptions(w), t);
    EXPECT_TRUE(plain.stats.isNull());
    EXPECT_EQ(plain.timelineDropped, stats.timelineDropped);
    ASSERT_EQ(plain.issueTimeline.size(), stats.issueTimeline.size());
    for (std::size_t i = 0; i < stats.issueTimeline.size(); ++i) {
        const IssueEvent &a = stats.issueTimeline[i];
        const IssueEvent &b = plain.issueTimeline[i];
        EXPECT_EQ(a.cycle, b.cycle) << "event " << i;
        EXPECT_EQ(a.slot, b.slot) << "event " << i;
        EXPECT_EQ(a.latencyMinor, b.latencyMinor) << "event " << i;
        EXPECT_EQ(a.cls, b.cls) << "event " << i;
    }
}

TEST(TelemetryTest, RunTraceHasRecorderSpansAndIssueTimeline)
{
    // What `ssim run --trace-events` does: a recorder session around
    // the compile and the run, written with the run's timeline.
    Workload w = tinyWorkload();
    MachineConfig m = superpipelinedSuperscalar(2, 2);
    RunTelemetryOptions t;
    t.timelineLimit = 4096;
    trace::Recorder::instance().start();
    Module module = compileWorkload(w.source, m,
                                    defaultCompileOptions(w));
    RunOutcome out = runOnMachine(module, m, t);
    const trace::Recording rec = trace::Recorder::instance().stop();
    ASSERT_FALSE(out.issueTimeline.empty());
    const Json doc = buildSweepTraceEvents(rec, m, &out);

    // Chrome tracing JSON object format: a traceEvents array whose
    // entries carry name/ph/pid/tid, with ts/dur on "X" events.
    ASSERT_TRUE(doc.isObject());
    const Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_GT(events->size(), 0u);
    std::set<std::string> spans;
    std::set<double> slotTracks;
    std::size_t issued = 0;
    for (const Json &e : events->asArray()) {
        ASSERT_TRUE(e.isObject());
        ASSERT_NE(e.find("name"), nullptr);
        ASSERT_NE(e.find("ph"), nullptr);
        ASSERT_NE(e.find("pid"), nullptr);
        ASSERT_NE(e.find("tid"), nullptr);
        const std::string &ph = e.find("ph")->asString();
        const double pid = e.find("pid")->asNumber();
        if (ph == "X") {
            ASSERT_NE(e.find("ts"), nullptr);
            ASSERT_NE(e.find("dur"), nullptr);
            EXPECT_GE(e.find("ts")->asNumber(), 0.0);
            EXPECT_GE(e.find("dur")->asNumber(), 0.0);
            if (pid == 1)
                spans.insert(e.find("name")->asString());
            else
                ++issued;
        } else {
            EXPECT_EQ(ph, "M");
            if (pid == 2 && e.find("name")->asString() == "thread_name")
                slotTracks.insert(e.find("tid")->asNumber());
        }
    }
    EXPECT_EQ(issued, out.issueTimeline.size());
    EXPECT_EQ(slotTracks.size(),
              static_cast<std::size_t>(m.issueWidth));
    ASSERT_NE(doc.at("otherData.timelineDropped"), nullptr);
    EXPECT_EQ(doc.at("otherData.timelineDropped")->asNumber(),
              static_cast<double>(out.timelineDropped));

#ifndef SSIM_NO_FLIGHT_RECORDER
    EXPECT_TRUE(spans.count("frontend.parse"));
    EXPECT_TRUE(spans.count("regalloc"));
    EXPECT_TRUE(spans.count("live_run"));
#else
    // Compiled out: the document carries only the issue process.
    EXPECT_TRUE(rec.spans.empty());
    EXPECT_TRUE(spans.empty());
#endif

    // And the whole document survives a serialize/parse round-trip.
    EXPECT_EQ(Json::parse(doc.dump(2)), doc);
}

TEST(TelemetryTest, StatsDoNotPerturbTiming)
{
    Workload w = tinyWorkload();
    CompileOptions o = defaultCompileOptions(w);
    RunOutcome plain = runWorkload(w, multiTitan(), o);
    RunOutcome observed =
        runWorkload(w, multiTitan(), o, fullTelemetry());
    EXPECT_EQ(plain.checksum, observed.checksum);
    EXPECT_EQ(plain.instructions, observed.instructions);
    EXPECT_DOUBLE_EQ(plain.cycles, observed.cycles);
}

} // namespace
} // namespace ilp
