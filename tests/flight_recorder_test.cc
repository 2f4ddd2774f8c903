/**
 * @file
 * The observability layer end to end: metrics (counters, gauges,
 * bounded-error histograms, Prometheus exposition), the span flight
 * recorder (nested spans, worker tracks, concurrent recording — run
 * under TSan in CI), the sweep trace-events writer, the
 * metrics-vs-stats reconciliation invariant, keep-going degradation
 * (a trapped cell annotates its span instead of truncating the worker
 * timeline), and the live progress reporter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/machine/models.hh"
#include "core/study/experiment.hh"
#include "core/study/progress.hh"
#include "core/study/sweep.hh"
#include "core/study/telemetry.hh"
#include "support/metrics.hh"
#include "support/trace.hh"

using namespace ilp;

namespace {

// ------------------------------------------------- histogram accuracy

/** Deterministic xorshift stream — no <random> seeding ambiguity. */
std::uint64_t
nextRand(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

double
exactQuantile(std::vector<double> sorted, double q)
{
    const auto n = sorted.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank == 0)
        rank = 1;
    return sorted[rank - 1];
}

TEST(HistogramTest, QuantilesTrackExactOrderStatistics)
{
    // The log-linear bucketing bounds the relative error of any
    // quantile by ~1/kSubBuckets; allow 2/kSubBuckets for the
    // midpoint representation.
    metrics::Registry reg;
    metrics::Histogram &h = reg.histogram("t_seconds");

    std::uint64_t seed = 0x9e3779b97f4a7c15ull;
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i) {
        // Span ~6 decades, like real phase durations do.
        const double u =
            static_cast<double>(nextRand(seed) % 1000000) / 1000000.0;
        samples.push_back(std::pow(10.0, -6.0 + 6.0 * u));
        h.observe(samples.back());
    }
    std::sort(samples.begin(), samples.end());

    const double tol =
        2.0 / static_cast<double>(metrics::Histogram::kSubBuckets);
    for (double q : {0.5, 0.9, 0.99}) {
        const double exact = exactQuantile(samples, q);
        const double est = h.quantile(q);
        EXPECT_NEAR(est / exact, 1.0, tol)
            << "q=" << q << " exact=" << exact << " est=" << est;
    }
    EXPECT_EQ(h.count(), 20000u);
}

TEST(HistogramTest, BucketRoundTripStaysWithinOneSubBucket)
{
    for (double v :
         {1e-10, 3.7e-4, 0.5, 1.0, 1.5, 2.0, 3.14159, 1e6}) {
        const int idx = metrics::Histogram::bucketIndex(v);
        const double rep = metrics::Histogram::bucketValue(idx);
        const double err = std::abs(rep - v) / v;
        EXPECT_LT(err, 1.0 / metrics::Histogram::kSubBuckets)
            << "v=" << v << " rep=" << rep;
    }
}

TEST(HistogramTest, DegenerateObservationsLandInTheFloorBucket)
{
    metrics::Registry reg;
    metrics::Histogram &h = reg.histogram("t");
    h.observe(0.0);
    h.observe(-3.0);
    h.observe(std::nan(""));
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.quantile(0.5), 0.0); // floor bucket represents zero
    EXPECT_EQ(metrics::Histogram::bucketIndex(0.0), 0);
    EXPECT_EQ(metrics::Histogram::bucketIndex(-1.0), 0);
}

TEST(HistogramTest, EmptyHistogramQuantileIsZero)
{
    metrics::Registry reg;
    EXPECT_EQ(reg.histogram("t").quantile(0.99), 0.0);
}

TEST(HistogramTest, MergeMatchesObservingTheUnion)
{
    // Identical log-linear bucketing on both sides makes merge()
    // exact: bucket-wise sums give the same counts, sum, and
    // quantiles as observing every sample into one histogram.
    metrics::Registry reg;
    metrics::Histogram &a = reg.histogram("a");
    metrics::Histogram &b = reg.histogram("b");
    metrics::Histogram &u = reg.histogram("union");

    std::uint64_t seed = 0xdecafbadull;
    for (int i = 0; i < 5000; ++i) {
        const double x =
            static_cast<double>(nextRand(seed) % 1000000) / 1000.0;
        const double y =
            static_cast<double>(nextRand(seed) % 1000000) / 7.0;
        a.observe(x);
        b.observe(y);
        u.observe(x);
        u.observe(y);
    }
    a.merge(b);

    EXPECT_EQ(a.count(), u.count());
    // Addition order differs (a's total + b's total vs interleaved
    // observes), so the sums agree only up to rounding.
    EXPECT_NEAR(a.sum(), u.sum(), 1e-9 * u.sum());
    for (double q : {0.01, 0.5, 0.9, 0.99})
        EXPECT_EQ(a.quantile(q), u.quantile(q)) << "q=" << q;
}

TEST(HistogramTest, MergePreservesTheQuantileErrorBound)
{
    // Quantiles of a merged histogram keep the single-histogram
    // worst-case relative error: shards see disjoint decade ranges,
    // the merged view must still track the exact order statistics of
    // the union within 2/kSubBuckets.
    metrics::Registry reg;
    metrics::Histogram &lo = reg.histogram("lo");
    metrics::Histogram &hi = reg.histogram("hi");

    std::uint64_t seed = 0x5eedull;
    std::vector<double> all;
    for (int i = 0; i < 10000; ++i) {
        const double u =
            static_cast<double>(nextRand(seed) % 1000000) / 1000000.0;
        const double small = std::pow(10.0, -6.0 + 3.0 * u);
        const double large = std::pow(10.0, 0.0 + 3.0 * u);
        lo.observe(small);
        hi.observe(large);
        all.push_back(small);
        all.push_back(large);
    }
    lo.merge(hi);
    std::sort(all.begin(), all.end());

    EXPECT_EQ(lo.count(), all.size());
    const double tol =
        2.0 / static_cast<double>(metrics::Histogram::kSubBuckets);
    for (double q : {0.1, 0.5, 0.9, 0.99}) {
        const double exact = exactQuantile(all, q);
        const double est = lo.quantile(q);
        EXPECT_NEAR(est / exact, 1.0, tol)
            << "q=" << q << " exact=" << exact << " est=" << est;
    }
}

TEST(HistogramTest, MergingAnEmptyHistogramIsANoOp)
{
    metrics::Registry reg;
    metrics::Histogram &a = reg.histogram("a");
    metrics::Histogram &empty = reg.histogram("empty");
    a.observe(1.5);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_DOUBLE_EQ(a.sum(), 1.5);
}

// -------------------------------------------------- registry plumbing

TEST(MetricsRegistryTest, CountersGaugesAndLookupStability)
{
    metrics::Registry reg;
    metrics::Counter &c = reg.counter("a_total", "help a");
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    // Same name returns the same instance.
    EXPECT_EQ(&reg.counter("a_total"), &c);

    metrics::Gauge &g = reg.gauge("g");
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);

    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(MetricsRegistryTest, PrometheusExpositionShape)
{
    metrics::Registry reg;
    reg.counter("ssim_x_total", "Things counted.").inc(3);
    reg.gauge("ssim_bytes", "Bytes held.").set(128);
    reg.histogram("ssim_t_seconds", "Durations.").observe(2.0);

    const std::string text = reg.prometheus();
    EXPECT_NE(text.find("# HELP ssim_x_total Things counted.\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE ssim_x_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("ssim_x_total 3\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE ssim_bytes gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("ssim_bytes 128\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE ssim_t_seconds summary\n"),
              std::string::npos);
    EXPECT_NE(text.find("ssim_t_seconds{quantile=\"0.99\"}"),
              std::string::npos);
    EXPECT_NE(text.find("ssim_t_seconds_sum 2\n"), std::string::npos);
    EXPECT_NE(text.find("ssim_t_seconds_count 1\n"),
              std::string::npos);
}

TEST(MetricsRegistryTest, JsonSnapshotRoundTrips)
{
    metrics::Registry reg;
    reg.counter("c_total", "c help").inc(2);
    reg.histogram("h_seconds").observe(1.0);
    const Json doc = reg.json();
    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::tryParse(doc.dump(2), parsed, &error)) << error;
    ASSERT_NE(parsed.at("c_total.type"), nullptr);
    EXPECT_EQ(parsed.at("c_total.type")->asString(), "counter");
    EXPECT_EQ(parsed.at("c_total.value")->asNumber(), 2.0);
    EXPECT_EQ(parsed.at("h_seconds.value.count")->asNumber(), 1.0);
}

// ------------------------------------------------------ span recorder

// Configured with -DSSIM_DISABLE_FLIGHT_RECORDER=ON, the recorder
// compiles out: every session records nothing, while sweep results
// and metrics counters stay exactly what they are with it compiled
// in.  The span-count tests below assert that contract instead.
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
    metrics::Registry &reg = metrics::Registry::global();
    metrics::Counter &c = reg.counter("test_concurrent_total");
    c.reset();
    for (int round = 0; round < 2; ++round) {
        trace::Recorder::instance().start();
        SweepRunner runner(8);
        runner.run(256, [&](std::size_t i) {
            trace::ScopedSpan span("work", "test");
            if (span.armed())
                span.detail(std::to_string(i));
            c.inc();
        });
        trace::Recording rec = trace::Recorder::instance().stop();
        EXPECT_EQ(rec.spans.size(), kRecorderCompiledIn ? 512u : 0u);
    }
    EXPECT_EQ(c.value(), 512u);
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

// --------------------------------------- metrics-vs-stats reconciling

TEST(ReconciliationTest, MetricsAgreeWithStudyCountersExactly)
{
    metrics::Registry::global().reset();
    Study study(4);
    const Workload &w = workloadByName("yacc");
    study.runner().run(6, [&](std::size_t i) {
        study.speedup(w, idealSuperscalar(static_cast<int>(i % 3) + 1));
    });

    EXPECT_EQ(checkMetricsReconciliation(study, 6), "");

    // The same invariant spelled out against exportStats, the
    // stats-side export the CLI serves.
    stats::Registry statsReg;
    study.compileCache().exportStats(
        statsReg.group("compile_cache", ""));
    const stats::StatsSnapshot snap = statsReg.snapshot();
    metrics::Registry &reg = metrics::Registry::global();
    EXPECT_EQ(
        static_cast<double>(
            reg.counter("ssim_compile_cache_hits_total").value()),
        snap.number("compile_cache.hits"));
    EXPECT_EQ(
        static_cast<double>(
            reg.counter("ssim_compile_cache_misses_total").value()),
        snap.number("compile_cache.misses"));
    EXPECT_EQ(reg.counter("ssim_sweep_cells_total").value(), 6u);

    // A perturbed counter must be caught.
    reg.counter("ssim_sweep_cells_total").inc();
    EXPECT_NE(checkMetricsReconciliation(study, 6), "");
}

// ------------------------------------------------------ live progress

TEST(ProgressReporterTest, RenderLineShowsRatesEtaAndFailures)
{
    Study study(2);
    study.speedup(workloadByName("yacc"), idealSuperscalar(2));

    ProgressReporter::Config pc;
    pc.totalCells = 8;
    pc.jobs = 2;
    pc.intervalMs = 1e9; // never auto-print during the test
    pc.compileCache = &study.compileCache();
    pc.out = tmpfile();
    ASSERT_NE(pc.out, nullptr);
    {
        ProgressReporter reporter(pc);
        EXPECT_EQ(ProgressReporter::current(), &reporter);
        reporter.cellFinished(0.5);
        reporter.cellFinished(0.5);
        reporter.noteFailure();
        EXPECT_EQ(reporter.cellsDone(), 2u);
        EXPECT_EQ(reporter.cellsFailed(), 1u);

        // Rate and ETA are asserted separately (EtaUsesTheTrailing
        // CompletionWindow) where the completion schedule is driven
        // deterministically; the two real completions above landed
        // microseconds apart, so their window rate is arbitrary.
        const std::string line = reporter.renderLine(2.0);
        EXPECT_NE(line.find("2/8 cells"), std::string::npos) << line;
        // 1.0 busy second over 2 workers * 2 elapsed seconds = 25%.
        EXPECT_NE(line.find("util 25%"), std::string::npos) << line;
        EXPECT_NE(line.find("compile-cache"), std::string::npos);
        EXPECT_NE(line.find("failed 1"), std::string::npos) << line;
    }
    EXPECT_EQ(ProgressReporter::current(), nullptr);
    std::fclose(pc.out);
}

TEST(ProgressReporterTest, EtaUsesTheTrailingCompletionWindow)
{
    // Regression: the ETA used the whole-run average rate, so a slow
    // cold-cache start skewed the forecast for the rest of the sweep.
    // Drive the completion ring directly with a synthetic schedule —
    // 64 slow cells at 1 cell/s, then 64 fast ones at 10 cells/s —
    // and check the estimate converges to the recent rate within one
    // window of the regime change.  (done_ stays 0: only the stamp
    // ring feeds the rate, and `eta = remaining / rate` with the full
    // 198 cells remaining keeps the numbers round.)
    ProgressReporter::Config pc;
    pc.totalCells = 198;
    pc.jobs = 1;
    pc.intervalMs = 1e9;
    pc.out = tmpfile();
    ASSERT_NE(pc.out, nullptr);
    {
        ProgressReporter reporter(pc);
        for (int i = 1; i <= 64; ++i)
            reporter.noteCellAt(static_cast<double>(i)); // 1 cell/s
        std::string slow = reporter.renderLine(64.0);
        EXPECT_NE(slow.find("1.0 cells/s"), std::string::npos) << slow;
        EXPECT_NE(slow.find("eta 3m18s"), std::string::npos) << slow;

        for (int i = 1; i <= 64; ++i)
            reporter.noteCellAt(64.0 + 0.1 * i); // 10 cells/s
        // One full window after the speedup the slow start is out of
        // the estimate entirely: 63 intervals over 6.3 s, not the
        // 128-cells-in-70.4-s (1.8 cells/s) whole-run average.
        std::string fast = reporter.renderLine(70.4);
        EXPECT_NE(fast.find("10.0 cells/s"), std::string::npos) << fast;
        EXPECT_NE(fast.find("eta 20s"), std::string::npos) << fast;
    }
    std::fclose(pc.out);
}

TEST(ProgressReporterTest, WindowRateFallsBackBeforeTwoSamples)
{
    ProgressReporter::Config pc;
    pc.totalCells = 4;
    pc.jobs = 1;
    pc.intervalMs = 1e9;
    pc.out = tmpfile();
    ASSERT_NE(pc.out, nullptr);
    {
        ProgressReporter reporter(pc);
        // No completions at all: no rate, no ETA.
        std::string idle = reporter.renderLine(2.0);
        EXPECT_NE(idle.find("0.0 cells/s"), std::string::npos) << idle;
        EXPECT_NE(idle.find("eta -"), std::string::npos) << idle;
        // A single stamp cannot span a window: whole-run average.
        reporter.noteCellAt(1.0);
        std::string one = reporter.renderLine(2.0);
        EXPECT_NE(one.find("0.0 cells/s"), std::string::npos) << one;
    }
    std::fclose(pc.out);
}

TEST(ProgressReporterTest, SweepNotifiesInstalledReporter)
{
    ProgressReporter::Config pc;
    pc.totalCells = 12;
    pc.jobs = 4;
    pc.intervalMs = 1e9;
    pc.out = tmpfile();
    ASSERT_NE(pc.out, nullptr);
    {
        ProgressReporter reporter(pc);
        SweepRunner runner(4);
        runner.run(12, [](std::size_t) {});
        EXPECT_EQ(reporter.cellsDone(), 12u);
    }
    std::fclose(pc.out);
}

} // namespace
