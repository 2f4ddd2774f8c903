/**
 * @file
 * Bench harness v2 (support/bench.hh): robust summaries (median, MAD,
 * seeded-bootstrap CI), the Mann-Whitney rank test, the bench-v2 row
 * and its strict loader, the crash- and concurrency-hardened append
 * path, the regression sentinel's verdicts on synthetic regressed /
 * improved / flat / too-short trajectories, and the `ssim report`
 * page rendered with no inputs.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/bench.hh"
#include "support/json.hh"
#include "support/report.hh"

using namespace ilp;

namespace {

// ------------------------------------------------- robust summaries

TEST(BenchSummaryTest, MedianOddEvenAndEmpty)
{
    EXPECT_EQ(bench::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(bench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(bench::median({}), 0.0);
}

TEST(BenchSummaryTest, SummaryStatisticsAreRobust)
{
    // One wild outlier moves the mean but neither median nor MAD.
    const std::vector<double> samples{10.0, 11.0, 9.0, 10.5, 1000.0};
    const bench::SampleSummary s = bench::summarize(samples);
    EXPECT_EQ(s.n, 5u);
    EXPECT_EQ(s.median, 10.5);
    EXPECT_EQ(s.min, 9.0);
    EXPECT_EQ(s.max, 1000.0);
    EXPECT_GT(s.mean, 100.0);
    EXPECT_LE(s.mad, 1.5); // |x - 10.5| medians to 0.5
    EXPECT_LE(s.ciLo, s.median);
    EXPECT_GE(s.ciHi, s.median);
}

TEST(BenchSummaryTest, BootstrapCiIsDeterministicUnderAFixedSeed)
{
    const std::vector<double> samples{5.0, 5.2, 4.9, 5.1, 5.05,
                                      4.95, 5.3, 5.15};
    const bench::SampleSummary a =
        bench::summarize(samples, 200, 0x5eed5eedULL);
    const bench::SampleSummary b =
        bench::summarize(samples, 200, 0x5eed5eedULL);
    EXPECT_EQ(a.ciLo, b.ciLo);
    EXPECT_EQ(a.ciHi, b.ciHi);
    // The interval is real: it brackets the median and is non-empty
    // on a spread sample.
    EXPECT_LT(a.ciLo, a.ciHi);
    EXPECT_LE(a.ciLo, a.median);
    EXPECT_GE(a.ciHi, a.median);
}

// --------------------------------------------------- Mann-Whitney U

TEST(BenchRankTest, SeparatedSamplesRejectTiedSamplesDoNot)
{
    const std::vector<double> low{1.0, 2.0, 3.0, 4.0, 5.0};
    const std::vector<double> high{10.0, 11.0, 12.0, 13.0, 14.0};
    const bench::RankTest sep = bench::mannWhitney(low, high);
    EXPECT_TRUE(sep.usable);
    EXPECT_EQ(sep.u, 0.0); // every low ranks under every high
    EXPECT_LT(sep.p, 0.05);

    // All values tied: ranks carry no information at all.
    const std::vector<double> flat{7.0, 7.0, 7.0, 7.0};
    const bench::RankTest tied = bench::mannWhitney(flat, flat);
    EXPECT_FALSE(tied.usable);
    EXPECT_EQ(tied.p, 1.0);

    // Same distribution, interleaved: nothing to reject.
    const std::vector<double> a{1.0, 3.0, 5.0, 7.0, 9.0};
    const std::vector<double> b{2.0, 4.0, 6.0, 8.0, 10.0};
    const bench::RankTest same = bench::mannWhitney(a, b);
    EXPECT_TRUE(same.usable);
    EXPECT_GT(same.p, 0.5);

    EXPECT_FALSE(bench::mannWhitney({}, a).usable);
}

// ---------------------------------------------------- bench-v2 rows

/** A v2 datapoint around `center` with a fixed +/- jitter pattern. */
Json
v2Point(const std::string &label, double center,
        const std::string &direction = "higher")
{
    const std::vector<double> samples{
        center * 0.99, center, center * 1.01, center * 1.005,
        center * 0.995};
    return bench::makePoint("throughput", label, "instr_per_s",
                            direction, samples, Json());
}

TEST(BenchSchemaTest, V2PointRoundTripsThroughJson)
{
    ::setenv("SSIM_BENCH_TIME_UTC", "2026-01-01T00:00:00Z", 1);
    Json config = Json::object();
    config.set("repetitions", Json(3.0));
    const std::vector<double> samples{10.0, 12.0, 11.0};
    Json row = bench::makePoint("throughput", "BM_R", "instr_per_s",
                                "higher", samples, std::move(config));
    ::unsetenv("SSIM_BENCH_TIME_UTC");

    bench::Point p;
    std::string error;
    ASSERT_TRUE(bench::parsePoint(Json::parse(row.dump()), &p, &error))
        << error;
    EXPECT_EQ(p.label, "BM_R");
    EXPECT_EQ(p.unit, "instr_per_s");
    EXPECT_EQ(p.direction, "higher");
    EXPECT_EQ(p.value, 11.0); // the sample median
    EXPECT_EQ(p.samples, samples);
    ASSERT_TRUE(p.meta.isObject());
    EXPECT_EQ(p.meta.find("timestamp_utc")->asString(),
              "2026-01-01T00:00:00Z");
    ASSERT_TRUE(p.summary.isObject());
    EXPECT_EQ(p.summary.find("median")->asNumber(), 11.0);
}

// ------------------------------------------------ file round trips

class BenchTrajectoryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "bench_trajectory_" +
                std::to_string(::getpid()) + ".json";
        removeFiles();
    }

    void TearDown() override { removeFiles(); }

    void
    removeFiles() const
    {
        for (const char *suffix : {"", ".bak", ".lock", ".tmp"})
            std::remove((path_ + suffix).c_str());
    }

    void
    writeFile(const std::string &path, const std::string &text) const
    {
        std::ofstream out(path, std::ios::trunc);
        out << text;
    }

    std::string
    readFile(const std::string &path) const
    {
        std::ifstream in(path);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    }

    void
    append(const std::string &label, double center = 100.0) const
    {
        std::string error;
        ASSERT_TRUE(
            bench::appendPoint(path_, v2Point(label, center), &error))
            << error;
    }

    std::string path_;
};

TEST_F(BenchTrajectoryTest, AppendsAccumulateAndLoadInOrder)
{
    append("BM_A", 100.0);
    append("BM_B", 200.0);

    bench::Trajectory traj;
    std::string error;
    ASSERT_TRUE(bench::loadTrajectory(path_, &traj, &error)) << error;
    ASSERT_EQ(traj.points.size(), 2u);
    EXPECT_EQ(traj.points[0].label, "BM_A");
    EXPECT_EQ(traj.points[1].label, "BM_B");
    EXPECT_EQ(traj.points[1].value, 200.0);
    EXPECT_EQ(traj.points[1].samples.size(), 5u);
}

TEST_F(BenchTrajectoryTest, FlushKeepsOnlyRunsAtTheSettledCount)
{
    // google-benchmark's calibration runs (40 and 55 iterations)
    // precede five repetitions, all at the count they settled on.
    // Each sample's value is its iteration count, to tell them apart.
    for (std::uint64_t iterations : {40, 55, 100, 100, 100, 100, 100})
        bench::recordSample("BM_Settled", "instr_per_s", "higher",
                            static_cast<double>(iterations), iterations);
    bench::flushSamples("throughput", path_);

    bench::Trajectory traj;
    std::string error;
    ASSERT_TRUE(bench::loadTrajectory(path_, &traj, &error)) << error;
    ASSERT_EQ(traj.points.size(), 1u);
    EXPECT_EQ(traj.points[0].samples, std::vector<double>(5, 100.0));
    const Json doc = Json::parse(readFile(path_));
    const Json &row = doc.asArray().at(0);
    ASSERT_NE(row.at("config.warmup_dropped"), nullptr);
    EXPECT_EQ(row.at("config.repetitions")->asNumber(), 5.0);
    EXPECT_EQ(row.at("config.warmup_dropped")->asNumber(), 2.0);
    EXPECT_EQ(row.at("config.iterations")->asNumber(), 100.0);
}

TEST_F(BenchTrajectoryTest, CorruptFileIsPreservedAsBakAndRestarted)
{
    // A torn trajectory (a killed run) is preserved as .bak and the
    // append restarts the array instead of failing the bench.
    writeFile(path_, "[{\"artifact\": \"T\", trunca");
    append("fresh");

    bench::Trajectory traj;
    std::string error;
    ASSERT_TRUE(bench::loadTrajectory(path_, &traj, &error)) << error;
    ASSERT_EQ(traj.points.size(), 1u);
    EXPECT_EQ(traj.points[0].label, "fresh");
    EXPECT_EQ(readFile(path_ + ".bak"),
              "[{\"artifact\": \"T\", trunca");
}

TEST_F(BenchTrajectoryTest, NonArrayFileIsRestarted)
{
    writeFile(path_, "{\"not\": \"an array\"}");
    append("x");
    Json doc = Json::parse(readFile(path_));
    ASSERT_TRUE(doc.isArray());
    EXPECT_EQ(doc.size(), 1u);
}

TEST_F(BenchTrajectoryTest, ConcurrentAppendsLoseNothing)
{
    constexpr int kThreads = 8;
    constexpr int kAppends = 5;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t]() {
            for (int a = 0; a < kAppends; ++a)
                append(std::to_string(t) + "." + std::to_string(a));
        });
    }
    for (auto &th : pool)
        th.join();

    Json doc = Json::parse(readFile(path_));
    ASSERT_TRUE(doc.isArray());
    EXPECT_EQ(doc.size(),
              static_cast<std::size_t>(kThreads * kAppends));
}

TEST_F(BenchTrajectoryTest, LoaderRejectsRowsThatAreNotBenchV2Samples)
{
    // A legacy v1 row: {artifact, label, stats} with no schema.
    Json throughput = Json::object();
    throughput.set("instr_per_s", Json(1e8));
    Json stats = Json::object();
    stats.set("throughput", throughput);
    Json v1 = Json::object();
    v1.set("artifact", Json("throughput"));
    v1.set("label", Json("BM_A"));
    v1.set("stats", stats);

    // A stats-only snapshot: bench-v2 schema, no value or samples.
    Json snapshot = Json::object();
    snapshot.set("schema", Json(bench::kSchemaV2));
    snapshot.set("artifact", Json("Figure 4-5"));
    snapshot.set("label", Json("whet@ss4"));
    snapshot.set("stats", stats);

    // A v2 row with its samples array missing.
    const Json good = v2Point("BM_OK", 1.0);
    Json unsampled = Json::object();
    for (const auto &[key, value] : good.asObject())
        if (key != "samples")
            unsampled.set(key, value);

    const std::vector<std::pair<std::vector<Json>, std::string>> cases{
        {{good, v1}, "row 1"},
        {{good, good, snapshot}, "row 2"},
        {{unsampled, good}, "row 0"},
    };
    for (const auto &[rows, index] : cases) {
        Json doc = Json::array();
        for (const Json &row : rows)
            doc.push(row);
        writeFile(path_, doc.dump(2));
        bench::Trajectory traj;
        std::string error;
        EXPECT_FALSE(bench::loadTrajectory(path_, &traj, &error))
            << index;
        EXPECT_NE(error.find(path_ + ": " + index + ":"),
                  std::string::npos)
            << error;
    }
}

// ----------------------------------------------------------- sentinel

bench::Trajectory
trajectoryOf(const std::vector<Json> &rows)
{
    bench::Trajectory traj;
    for (const Json &row : rows) {
        bench::Point p;
        std::string error;
        EXPECT_TRUE(bench::parsePoint(row, &p, &error)) << error;
        traj.points.push_back(std::move(p));
    }
    return traj;
}

TEST(BenchSentinelTest, FlagsATenPercentRegression)
{
    // Four stable baseline points at ~100, newest at ~90 on a
    // higher-is-better unit: a 10% drop must flag against the
    // default 5% threshold, with rank-test support (5 vs 20 samples).
    bench::Trajectory traj = trajectoryOf(
        {v2Point("BM_R", 100.0), v2Point("BM_R", 100.3),
         v2Point("BM_R", 99.8), v2Point("BM_R", 100.1),
         v2Point("BM_R", 90.0)});
    const std::vector<bench::LabelVerdict> rows =
        bench::sentinelCheck(traj, bench::SentinelConfig{});
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].verdict, bench::Verdict::Regressed);
    EXPECT_TRUE(rows[0].tested);
    EXPECT_LT(rows[0].p, 0.05);
    EXPECT_NEAR(rows[0].worsePct, 0.10, 0.02);
    EXPECT_TRUE(bench::anyRegression(rows));
}

TEST(BenchSentinelTest, PassesAFlatSeriesAndHonorsImprovement)
{
    bench::Trajectory flat = trajectoryOf(
        {v2Point("BM_F", 100.0), v2Point("BM_F", 100.4),
         v2Point("BM_F", 99.7), v2Point("BM_F", 100.2),
         v2Point("BM_F", 100.1)});
    std::vector<bench::LabelVerdict> rows =
        bench::sentinelCheck(flat, bench::SentinelConfig{});
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].verdict, bench::Verdict::Ok);
    EXPECT_FALSE(bench::anyRegression(rows));

    bench::Trajectory better = trajectoryOf(
        {v2Point("BM_I", 100.0), v2Point("BM_I", 100.3),
         v2Point("BM_I", 99.8), v2Point("BM_I", 115.0)});
    rows = bench::sentinelCheck(better, bench::SentinelConfig{});
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].verdict, bench::Verdict::Improved);
}

TEST(BenchSentinelTest, LowerIsBetterUnitsJudgeInTheRightDirection)
{
    // wall-seconds style series: the newest point RISES 10%, which
    // is a regression even though the number went up.
    bench::Trajectory traj = trajectoryOf(
        {v2Point("BM_W", 1.0, "lower"), v2Point("BM_W", 1.002, "lower"),
         v2Point("BM_W", 0.998, "lower"),
         v2Point("BM_W", 1.1, "lower")});
    const std::vector<bench::LabelVerdict> rows =
        bench::sentinelCheck(traj, bench::SentinelConfig{});
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].verdict, bench::Verdict::Regressed);
}

TEST(BenchSentinelTest, ShortHistoryIsInsufficientNotARegression)
{
    bench::Trajectory traj = trajectoryOf(
        {v2Point("BM_S", 100.0), v2Point("BM_S", 80.0)});
    const std::vector<bench::LabelVerdict> rows =
        bench::sentinelCheck(traj, bench::SentinelConfig{});
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].verdict, bench::Verdict::Insufficient);
    EXPECT_FALSE(bench::anyRegression(rows));
}

TEST(BenchSentinelTest, VerdictTableRendersByteStably)
{
    bench::Trajectory traj = trajectoryOf(
        {v2Point("BM_R", 100.0), v2Point("BM_R", 100.3),
         v2Point("BM_R", 99.8), v2Point("BM_R", 100.1),
         v2Point("BM_R", 90.0), v2Point("BM_S", 50.0)});
    const bench::SentinelConfig config;
    const std::vector<bench::LabelVerdict> rows =
        bench::sentinelCheck(traj, config);
    const std::string a = bench::renderVerdictTable(rows, config);
    const std::string b = bench::renderVerdictTable(
        bench::sentinelCheck(traj, config), config);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("REGRESSED"), std::string::npos);
    EXPECT_NE(a.find("insufficient"), std::string::npos);
    EXPECT_NE(a.find("p(MWU)"), std::string::npos);
}

TEST(BenchSentinelTest, RollingWindowForgetsAncientPoints)
{
    // Nine old points at 50, then window-many at 100, newest at 100:
    // with window 4 the 50s must have scrolled out of the baseline.
    std::vector<Json> rows;
    for (int i = 0; i < 9; ++i)
        rows.push_back(v2Point("BM_R", 50.0));
    for (int i = 0; i < 4; ++i)
        rows.push_back(v2Point("BM_R", 100.0));
    rows.push_back(v2Point("BM_R", 100.0));
    bench::SentinelConfig config;
    config.window = 4;
    const std::vector<bench::LabelVerdict> out =
        bench::sentinelCheck(trajectoryOf(rows), config);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].verdict, bench::Verdict::Ok);
    EXPECT_NEAR(out[0].baselineMedian, 100.0, 1.0);
}

// ------------------------------------------------------ head-to-head

TEST(BenchCompareTest, OverheadBudgetJudgesPooledMedians)
{
    // B runs ~10% slower (higher-is-better rate 10% lower).
    bench::Trajectory traj = trajectoryOf(
        {v2Point("BM_A", 100.0), v2Point("BM_A", 100.2),
         v2Point("BM_B", 90.0), v2Point("BM_B", 90.1)});
    bench::CompareResult r;
    std::string error;
    ASSERT_TRUE(
        bench::compareLabels(traj, "BM_A", "BM_B", 2.0, &r, &error))
        << error;
    EXPECT_FALSE(r.withinBudget);
    EXPECT_NEAR(r.overheadPct, 10.0, 1.0);
    EXPECT_LT(r.p, 0.05);

    ASSERT_TRUE(
        bench::compareLabels(traj, "BM_A", "BM_B", 15.0, &r, &error));
    EXPECT_TRUE(r.withinBudget);

    EXPECT_FALSE(
        bench::compareLabels(traj, "BM_A", "BM_MISSING", 2.0, &r,
                             &error));
    EXPECT_NE(error.find("BM_MISSING"), std::string::npos);

    const std::string rendered = bench::renderCompare(r, 15.0);
    EXPECT_EQ(rendered, bench::renderCompare(r, 15.0));
}

// ------------------------------------------------------------ report

TEST(ReportTest, EmptyReportHintNamesTheReportFlags)
{
    // With no inputs the page says which flags to pass; they must be
    // the flags `ssim report` actually accepts.
    const std::string html = report::renderHtml(report::ReportInputs{});
    EXPECT_NE(html.find("no renderable artifacts"), std::string::npos);
    for (const char *flag :
         {"--bench,", "--stats-in,", "--trace-in,", "--profile-in."})
        EXPECT_NE(html.find(flag), std::string::npos) << flag;
}

TEST(ReportTest, TraceSectionTabulatesSelfTimeAndQuantiles)
{
    // Thread 0 nests cell > compile > licm; thread 1 runs one more
    // cell; pid 2 is a simulated issue timeline, not host time.
    const Json trace = Json::parse(R"({"traceEvents": [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "sweep"}},
        {"name": "licm", "cat": "compile", "ph": "X", "ts": 2000,
         "dur": 2000, "pid": 1, "tid": 0},
        {"name": "compile", "cat": "compile", "ph": "X", "ts": 1000,
         "dur": 6000, "pid": 1, "tid": 0},
        {"name": "cell", "cat": "sweep", "ph": "X", "ts": 0,
         "dur": 10000, "pid": 1, "tid": 0},
        {"name": "cell", "cat": "sweep", "ph": "X", "ts": 500,
         "dur": 4000, "pid": 1, "tid": 1},
        {"name": "int_alu", "cat": "issue", "ph": "X", "ts": 0,
         "dur": 3, "pid": 2, "tid": 0}]})");
    report::ReportInputs inputs;
    inputs.trace = &trace;
    const std::string html = report::renderHtml(inputs);
    EXPECT_EQ(html, report::renderHtml(inputs));

    auto row = [](const char *name, const char *cat, const char *count,
                  const char *total, const char *self, const char *p50,
                  const char *p90, const char *p99) {
        std::string r = "<tr><td>";
        r += name;
        r += "</td><td>";
        r += cat;
        for (const char *num : {count, total, self, p50, p90, p99}) {
            r += "</td><td class=\"num\">";
            r += num;
        }
        return r + "</td></tr>";
    };
    // cell: self 10 - 6 = 4 ms on thread 0 plus 4 ms on thread 1;
    // nearest-rank p50 of {4, 10} is 4, p90 and p99 are 10.
    const std::string cell = row("cell", "sweep", "2", "14.000", "8.000",
                                 "4.000", "10.000", "10.000");
    const std::string compile = row("compile", "compile", "1", "6.000",
                                    "4.000", "6.000", "6.000", "6.000");
    const std::string licm = row("licm", "compile", "1", "2.000",
                                 "2.000", "2.000", "2.000", "2.000");
    EXPECT_NE(html.find("Host time by span"), std::string::npos);
    EXPECT_NE(html.find("4 spans on 2 threads"), std::string::npos);
    // Rows run from the most self time to the least.
    ASSERT_NE(html.find(cell), std::string::npos) << html;
    ASSERT_NE(html.find(compile), std::string::npos) << html;
    ASSERT_NE(html.find(licm), std::string::npos) << html;
    EXPECT_LT(html.find(cell), html.find(compile));
    EXPECT_LT(html.find(compile), html.find(licm));
    EXPECT_EQ(html.find("int_alu"), std::string::npos);
}

} // namespace
