/**
 * @file
 * Bench harness v2: robust summary statistics, the versioned
 * `bench-v2` perf-trajectory schema, and the statistical regression
 * sentinel behind `ssim bench-check`.
 *
 * Why this layer exists: a bare single-sample datapoint with no
 * provenance, gated by a single-sample threshold, is exactly the
 * "wrong data without doing anything obviously wrong" trap.  v2
 * datapoints carry per-repetition samples, robust summaries (median,
 * MAD, bootstrap CI on the median), and a provenance block (git
 * describe, build type, host hash, UTC timestamp), and the sentinel
 * compares the newest point per label against a rolling baseline
 * window with a Mann-Whitney U rank test plus a relative-median
 * threshold — noise cannot flip the verdict with one lucky sample,
 * and a real shift cannot hide behind a loose mean.
 *
 * Everything here is deterministic given its inputs: the bootstrap is
 * seeded (splitmix64), verdict tables render byte-stably, and the
 * only wall-clock read is the timestamp stamped into new datapoints
 * (overridable via SSIM_BENCH_TIME_UTC for reproducible tests).
 *
 * The bench-v2 row shape (one JSON object per appended datapoint),
 * the only row kind a trajectory holds:
 *
 *   { "schema": "bench-v2", "artifact": ..., "label": ...,
 *     "meta": {generator, version, build, host_hash, timestamp_utc},
 *     "config": {repetitions, warmup_dropped, iterations, bootstrap},
 *     "unit": "instr_per_s", "direction": "higher", "value": <median>,
 *     "samples": [...], "summary": {n, mean, median, mad, ci_lo,
 *                                   ci_hi, min, max} }
 *
 * The loader rejects any other row (see docs/observability.md).
 */

#ifndef SUPERSYM_SUPPORT_BENCH_HH
#define SUPERSYM_SUPPORT_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/json.hh"

namespace ilp::bench {

// ------------------------------------------------ robust summaries

/** Bootstrap resamples used for the CI on the median. */
inline constexpr int kBootstrapIterations = 200;
/** Fixed bootstrap seed: summaries are reproducible by default. */
inline constexpr std::uint64_t kBootstrapSeed = 0x5eed5eedULL;

/** Median of `values` (by value; the copy is sorted).  0 on empty. */
double median(std::vector<double> values);

/**
 * Robust summary of one repetition set: median, MAD (median absolute
 * deviation, the robust spread), and a seeded-bootstrap 95% CI on
 * the median.  Deterministic for a given (samples, iterations, seed).
 */
struct SampleSummary
{
    std::size_t n = 0;
    double mean = 0.0;
    double median = 0.0;
    double mad = 0.0;
    double ciLo = 0.0; ///< bootstrap 2.5th percentile of the median
    double ciHi = 0.0; ///< bootstrap 97.5th percentile of the median
    double min = 0.0;
    double max = 0.0;
};

SampleSummary summarize(const std::vector<double> &samples,
                        int bootstrapIterations = kBootstrapIterations,
                        std::uint64_t seed = kBootstrapSeed);

/**
 * Two-sided Mann-Whitney U rank test: are samples `a` and `b` drawn
 * from the same distribution?  Normal approximation with tie
 * correction and continuity correction — adequate from a handful of
 * samples up; `usable` is false when either side is empty or every
 * value is tied (no rank information), in which case p is 1.
 */
struct RankTest
{
    double u = 0.0; ///< U statistic for `a`
    double z = 0.0; ///< normal deviate
    double p = 1.0; ///< two-sided p-value
    bool usable = false;
};

RankTest mannWhitney(const std::vector<double> &a,
                     const std::vector<double> &b);

// ---------------------------------------------- trajectory schema

inline constexpr const char *kSchemaV2 = "bench-v2";

/** One loaded trajectory datapoint (a bench-v2 row; the JSON blocks
 *  are null when the row omits them). */
struct Point
{
    std::string artifact;
    std::string label;
    std::string unit;      ///< e.g. "instr_per_s", "wall_s"
    std::string direction; ///< "higher" or "lower" is better
    double value = 0.0;            ///< headline scalar (the median)
    std::vector<double> samples;   ///< per-repetition values, non-empty
    Json meta;    ///< provenance block
    Json summary; ///< robust summary
};

/** Host identity hash (uname + core count), stamped into meta so
 *  trajectories mixing machines are diffable. */
std::uint64_t hostHash();

/** ISO-8601 UTC timestamp; SSIM_BENCH_TIME_UTC overrides for tests. */
std::string utcTimestamp();

/** The v2 provenance block: generator, version (git describe), build
 *  type, host hash, UTC timestamp. */
Json pointMeta();

/**
 * Build a v2 datapoint from per-repetition samples.  `value` is the
 * sample median; `summary` is computed with the default seeded
 * bootstrap.  `config` may be null.
 */
Json makePoint(const std::string &artifact, const std::string &label,
               const std::string &unit, const std::string &direction,
               const std::vector<double> &samples, Json config);

/** Parse one trajectory row into `out`.  False with `error` naming
 *  the defect when the row is not a bench-v2 object with a numeric
 *  `value` and a non-empty, all-numeric `samples` array. */
bool parsePoint(const Json &row, Point *out, std::string *error);

/** A loaded trajectory, points in file (append) order. */
struct Trajectory
{
    std::vector<Point> points;
};

/** Load a trajectory file (a JSON array of bench-v2 rows).  False
 *  with `error` filled on an unreadable file, malformed JSON, or a
 *  row parsePoint rejects (the error names the file and the row
 *  index). */
bool loadTrajectory(const std::string &path, Trajectory *out,
                    std::string *error);

/**
 * Append one datapoint to the trajectory at `path`, creating it as a
 * fresh array when missing.  Concurrency-safe: a process-local mutex
 * covers threads, an advisory flock() on `path+".lock"` covers
 * parallel processes, and the file is replaced via temp + atomic
 * rename.  An unparsable existing file is preserved as `path+".bak"`
 * and the trajectory restarts (appends must never fail the bench).
 */
bool appendPoint(const std::string &path, const Json &row,
                 std::string *error);

// ----------------------------------- sample recorder (bench main)

/**
 * Accumulate one per-repetition sample for `label`.  Benchmark
 * binaries call this once per timed run; flushSamples() then folds
 * every label's samples into a single v2 datapoint.  `iterations`
 * is the benchmark's inner-iteration count for the run — runs below
 * the label's maximum count are treated as warmup (google-benchmark's
 * calibration runs; every repetition runs at the settled count) and
 * dropped at flush time.
 */
void recordSample(const std::string &label, const std::string &unit,
                  const std::string &direction, double value,
                  std::uint64_t iterations);

/**
 * Append one v2 datapoint per recorded label (in first-record order)
 * to the trajectory at `path`, then clear the recorder.  No-op when
 * nothing was recorded.  Append failures warn on stderr but never
 * fail the bench.
 */
void flushSamples(const std::string &artifact,
                  const std::string &path);

// ------------------------------------------------------- sentinel

struct SentinelConfig
{
    std::size_t window = 8;      ///< baseline points per label
    std::size_t minBaseline = 3; ///< fewer -> insufficient data
    double alpha = 0.05;         ///< rank-test significance level
    double threshold = 0.05;     ///< relative-median delta that matters
};

enum class Verdict
{
    Ok,           ///< within threshold, or shift not significant
    Regressed,    ///< significantly worse than baseline
    Improved,     ///< significantly better than baseline
    Insufficient, ///< not enough baseline points to judge
};

const char *verdictName(Verdict verdict);

/** Per-label sentinel outcome (one row of the verdict table). */
struct LabelVerdict
{
    std::string label;
    std::string unit;
    Verdict verdict = Verdict::Insufficient;
    std::size_t baselinePoints = 0;
    std::size_t baselineSamples = 0;
    std::size_t latestSamples = 0;
    double baselineMedian = 0.0;
    double latestMedian = 0.0;
    /** Relative shift, positive = worse (direction-aware). */
    double worsePct = 0.0;
    double p = 1.0;      ///< two-sided Mann-Whitney p-value
    bool tested = false; ///< rank test had enough samples to matter
    std::string note;
};

/**
 * Judge the newest datapoint of every label against its rolling
 * baseline window (the preceding `window` points, samples pooled).
 * A label regresses when its worse-direction median shift exceeds
 * `threshold` AND the rank test rejects at `alpha` (when enough
 * samples exist for the test to have power; otherwise the median
 * threshold alone decides, flagged in the note).  Output order
 * follows first appearance in the trajectory.
 */
std::vector<LabelVerdict> sentinelCheck(const Trajectory &trajectory,
                                        const SentinelConfig &config);

/** Render the verdict table (byte-stable for identical input). */
std::string renderVerdictTable(const std::vector<LabelVerdict> &rows,
                               const SentinelConfig &config);

bool anyRegression(const std::vector<LabelVerdict> &rows);

/** Head-to-head comparison of two labels in one trajectory (the
 *  tracing-overhead / bytecode-speed guards): pooled samples, median
 *  overhead of `labelB` relative to `labelA`, rank-test p-value. */
struct CompareResult
{
    std::string labelA;
    std::string labelB;
    std::string unit;
    std::size_t samplesA = 0;
    std::size_t samplesB = 0;
    double medianA = 0.0;
    double medianB = 0.0;
    /** Relative cost of B vs A, positive = B worse (direction-aware). */
    double overheadPct = 0.0;
    double p = 1.0;
    bool withinBudget = false;
};

/** False with `error` filled when either label is missing or has no
 *  samples.  `budgetPct` is the allowed overhead in percent. */
bool compareLabels(const Trajectory &trajectory,
                   const std::string &labelA, const std::string &labelB,
                   double budgetPct, CompareResult *out,
                   std::string *error);

/** Render the comparison verdict (byte-stable, one paragraph). */
std::string renderCompare(const CompareResult &r, double budgetPct);

} // namespace ilp::bench

#endif // SUPERSYM_SUPPORT_BENCH_HH
