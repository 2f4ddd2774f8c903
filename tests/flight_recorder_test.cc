/**
 * @file
 * The observability layer end to end: the span flight recorder
 * (nested spans, worker tracks, concurrent recording — run under
 * TSan in CI), the sweep trace-events writer, and keep-going
 * degradation (a trapped cell annotates its span instead of
 * truncating the worker timeline).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/machine/models.hh"
#include "core/study/experiment.hh"
#include "core/study/sweep.hh"
#include "core/study/telemetry.hh"
#include "support/trace.hh"

using namespace ilp;

namespace {

// ------------------------------------------------------ span recorder

// Configured with -DSSIM_DISABLE_FLIGHT_RECORDER=ON, the recorder
// compiles out: every session records nothing, while sweep results
// stay exactly what they are with it compiled in.  The span-count
// tests below assert that contract instead.
#ifdef SSIM_NO_FLIGHT_RECORDER
constexpr bool kRecorderCompiledIn = false;
#else
constexpr bool kRecorderCompiledIn = true;
#endif

void
expectNothingRecorded(const trace::Recording &rec)
{
    EXPECT_TRUE(rec.spans.empty());
    EXPECT_TRUE(rec.tracks.empty());
}

TEST(FlightRecorderTest, InactiveSessionRecordsNothing)
{
    {
        trace::ScopedSpan span("idle", "test");
        EXPECT_FALSE(span.armed());
    }
    trace::Recorder::instance().start();
    trace::Recording rec = trace::Recorder::instance().stop();
    EXPECT_TRUE(rec.spans.empty());
}

TEST(FlightRecorderTest, NestedSpansAndDetailAnnotation)
{
    trace::Recorder::instance().start();
    {
        trace::ScopedSpan outer("outer", "test");
        ASSERT_EQ(outer.armed(), kRecorderCompiledIn);
        {
            trace::ScopedSpan inner("inner", "test");
            trace::annotateCurrentSpan("tagged");
            trace::annotateCurrentSpan("twice");
        }
        // After inner closes, annotations land on outer again.
        trace::annotateCurrentSpan("outer-tag");
    }
    trace::Recording rec = trace::Recorder::instance().stop();
    if (!kRecorderCompiledIn) {
        expectNothingRecorded(rec);
        return;
    }
    ASSERT_EQ(rec.spans.size(), 2u);
    // Spans are sorted longest-first at equal track; outer encloses
    // inner so outer sorts first.
    EXPECT_STREQ(rec.spans[0].name, "outer");
    EXPECT_EQ(rec.spans[0].detail, "outer-tag");
    EXPECT_STREQ(rec.spans[1].name, "inner");
    EXPECT_EQ(rec.spans[1].detail, "tagged twice");
    EXPECT_GE(rec.spans[1].startUs, rec.spans[0].startUs);
    EXPECT_LE(rec.spans[1].durUs, rec.spans[0].durUs);
}

TEST(FlightRecorderTest, SweepLabelsOneTrackPerWorker)
{
    for (int jobs : {1, 4}) {
        trace::Recorder::instance().start();
        SweepRunner runner(jobs);
        std::atomic<int> cells{0};
        runner.run(16, [&](std::size_t) {
            trace::ScopedSpan span("work", "test");
            cells.fetch_add(1);
        });
        trace::Recording rec = trace::Recorder::instance().stop();
        EXPECT_EQ(cells.load(), 16);
        if (!kRecorderCompiledIn) {
            expectNothingRecorded(rec);
            continue;
        }
        // 16 cell spans (from SweepRunner) + 16 work spans.
        EXPECT_EQ(rec.spans.size(), 32u);
        ASSERT_FALSE(rec.tracks.empty());
        EXPECT_LE(rec.tracks.size(), static_cast<std::size_t>(jobs));
        EXPECT_EQ(rec.tracks[0].first, 0u);
        EXPECT_EQ(rec.tracks[0].second, "worker 0");
        for (const trace::Span &s : rec.spans) {
            EXPECT_LT(s.track, static_cast<std::uint32_t>(jobs));
        }
    }
}

TEST(FlightRecorderTest, ConcurrentSpansAndCountersAreSafe)
{
    // The TSan CI job runs this test: many workers recording spans
    // and bumping one counter at once, twice, to cover session reuse.
    std::atomic<std::uint64_t> c{0};
    for (int round = 0; round < 2; ++round) {
        trace::Recorder::instance().start();
        SweepRunner runner(8);
        runner.run(256, [&](std::size_t i) {
            trace::ScopedSpan span("work", "test");
            if (span.armed())
                span.detail(std::to_string(i));
            c.fetch_add(1, std::memory_order_relaxed);
        });
        trace::Recording rec = trace::Recorder::instance().stop();
        EXPECT_EQ(rec.spans.size(), kRecorderCompiledIn ? 512u : 0u);
    }
    EXPECT_EQ(c.load(), 512u);
}

TEST(FlightRecorderTest, SweepTraceEventsDocumentShape)
{
    trace::Recorder::instance().start();
    SweepRunner runner(2);
    runner.run(4, [](std::size_t) {
        trace::ScopedSpan span("work", "test");
        if (span.armed())
            span.detail("w");
    });
    trace::Recording rec = trace::Recorder::instance().stop();
    const Json doc = buildSweepTraceEvents(rec, idealSuperscalar(4));

    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::tryParse(doc.dump(2), parsed, &error)) << error;
    const Json *events = parsed.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::size_t complete = 0, threadNames = 0;
    for (const Json &e : events->asArray()) {
        const std::string ph = e.find("ph")->asString();
        if (ph == "X") {
            ++complete;
            EXPECT_TRUE(e.find("ts")->isNumber());
            EXPECT_TRUE(e.find("dur")->isNumber());
        } else if (ph == "M" &&
                   e.find("name")->asString() == "thread_name") {
            ++threadNames;
        }
    }
    EXPECT_EQ(complete, rec.spans.size());
    EXPECT_EQ(threadNames, rec.tracks.size());
    ASSERT_NE(parsed.at("otherData.machine"), nullptr);
    EXPECT_TRUE(parsed.at("otherData.machine")->isString());
}

// ------------------------------------- keep-going degrades gracefully

TEST(FlightRecorderTest, KeepGoingCellAnnotatesSpanWithErrorCode)
{
    // A trapped cell must stamp its E-code on the cell span and leave
    // the worker timeline intact — same cell spans as an all-good
    // sweep, and the simulation results must match the untraced run.
    Workload bad{"bad", "malformed", "func main( { return 0; }", 0,
                 false, 1};
    auto sweep = [&](int jobs) {
        Study study(jobs);
        auto cell = [&](std::size_t i) {
            if (i == 2)
                return study.speedup(bad, idealSuperscalar(2));
            return study.speedup(workloadByName("yacc"),
                                 idealSuperscalar(
                                     static_cast<int>(i) + 1));
        };
        return study.runner()
            .mapHardened<double>(4, CellPolicy{.keepGoing = true}, cell)
            .cells;
    };

    std::vector<CellOutcome<double>> untraced = sweep(8);

    trace::Recorder::instance().start();
    std::vector<CellOutcome<double>> traced = sweep(8);
    trace::Recording rec = trace::Recorder::instance().stop();

    ASSERT_EQ(traced.size(), untraced.size());
    for (std::size_t i = 0; i < traced.size(); ++i) {
        EXPECT_EQ(traced[i].ok(), untraced[i].ok()) << i;
        if (traced[i].ok())
            EXPECT_DOUBLE_EQ(traced[i].value, untraced[i].value) << i;
        else
            EXPECT_EQ(traced[i].error.code, untraced[i].error.code);
    }
    if (!kRecorderCompiledIn) {
        expectNothingRecorded(rec);
        return;
    }

    std::size_t cells = 0, annotated = 0;
    for (const trace::Span &s : rec.spans) {
        if (std::string(s.name) != "cell")
            continue;
        ++cells;
        if (s.detail.find("error[E") != std::string::npos)
            ++annotated;
    }
    EXPECT_EQ(cells, 4u); // the failed cell's span is NOT dropped
    EXPECT_EQ(annotated, 1u);
}

} // namespace
