#include "support/bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <mutex>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <sys/utsname.h>
#include <unistd.h>
#endif

#include "support/buildinfo.hh"
#include "support/table.hh"

namespace ilp::bench {

namespace {

/** splitmix64 finalizing mixer: the bootstrap's deterministic PRNG
 *  (same generator the fault-injection registry uses). */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

double
medianOfSorted(const std::vector<double> &sorted)
{
    const std::size_t n = sorted.size();
    if (n == 0)
        return 0.0;
    if (n % 2 == 1)
        return sorted[n / 2];
    return 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

/** Standard normal survival via erfc: P(Z > z). */
double
normalSf(double z)
{
    return 0.5 * std::erfc(z / std::sqrt(2.0));
}

std::string
formatValue(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

std::string
formatPct(double fraction)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%+.2f%%", fraction * 100.0);
    return buf;
}

std::string
formatP(double p)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f", p);
    return buf;
}

} // namespace

// --------------------------------------------------- robust summaries

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return medianOfSorted(values);
}

SampleSummary
summarize(const std::vector<double> &samples, int bootstrapIterations,
          std::uint64_t seed)
{
    SampleSummary s;
    s.n = samples.size();
    if (samples.empty())
        return s;

    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    s.min = sorted.front();
    s.max = sorted.back();
    double sum = 0.0;
    for (double v : sorted)
        sum += v;
    s.mean = sum / static_cast<double>(s.n);
    s.median = medianOfSorted(sorted);

    std::vector<double> deviations(sorted.size());
    for (std::size_t i = 0; i < sorted.size(); ++i)
        deviations[i] = std::fabs(sorted[i] - s.median);
    std::sort(deviations.begin(), deviations.end());
    s.mad = medianOfSorted(deviations);

    // Seeded bootstrap on the median: resample n-with-replacement
    // `bootstrapIterations` times, take the 2.5/97.5 percentiles of
    // the resampled medians.  Every draw is a pure function of
    // (seed, iteration, slot), so the CI is reproducible.
    if (bootstrapIterations > 0) {
        std::vector<double> medians;
        medians.reserve(static_cast<std::size_t>(bootstrapIterations));
        std::vector<double> resample(sorted.size());
        for (int it = 0; it < bootstrapIterations; ++it) {
            for (std::size_t j = 0; j < sorted.size(); ++j) {
                const std::uint64_t draw = splitmix64(
                    seed ^ (static_cast<std::uint64_t>(it) << 32) ^
                    static_cast<std::uint64_t>(j));
                resample[j] = sorted[draw % sorted.size()];
            }
            std::sort(resample.begin(), resample.end());
            medians.push_back(medianOfSorted(resample));
        }
        std::sort(medians.begin(), medians.end());
        const std::size_t hi_rank = static_cast<std::size_t>(
            std::floor(0.975 * static_cast<double>(medians.size() - 1) +
                       0.5));
        const std::size_t lo_rank = static_cast<std::size_t>(
            std::floor(0.025 * static_cast<double>(medians.size() - 1) +
                       0.5));
        s.ciLo = medians[lo_rank];
        s.ciHi = medians[hi_rank];
    } else {
        s.ciLo = s.median;
        s.ciHi = s.median;
    }
    return s;
}

RankTest
mannWhitney(const std::vector<double> &a, const std::vector<double> &b)
{
    RankTest t;
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    if (n == 0 || m == 0)
        return t;

    // Rank the pooled sample, averaging ranks within tie groups.
    struct Tagged
    {
        double value;
        bool fromA;
    };
    std::vector<Tagged> pooled;
    pooled.reserve(n + m);
    for (double v : a)
        pooled.push_back({v, true});
    for (double v : b)
        pooled.push_back({v, false});
    std::sort(pooled.begin(), pooled.end(),
              [](const Tagged &x, const Tagged &y) {
                  return x.value < y.value;
              });

    double rankSumA = 0.0;
    double tieTerm = 0.0; // sum of t^3 - t over tie groups
    std::size_t i = 0;
    while (i < pooled.size()) {
        std::size_t j = i;
        while (j < pooled.size() &&
               pooled[j].value == pooled[i].value)
            ++j;
        const double groupSize = static_cast<double>(j - i);
        // Average 1-based rank of positions [i, j).
        const double avgRank =
            (static_cast<double>(i + 1) + static_cast<double>(j)) /
            2.0;
        for (std::size_t k = i; k < j; ++k)
            if (pooled[k].fromA)
                rankSumA += avgRank;
        tieTerm += groupSize * groupSize * groupSize - groupSize;
        i = j;
    }

    const double dn = static_cast<double>(n);
    const double dm = static_cast<double>(m);
    const double total = dn + dm;
    t.u = rankSumA - dn * (dn + 1.0) / 2.0;

    const double meanU = dn * dm / 2.0;
    double varU = dn * dm * (total + 1.0) / 12.0;
    if (total > 1.0)
        varU -= dn * dm * tieTerm / (12.0 * total * (total - 1.0));
    if (varU <= 0.0) {
        // Every observation tied: the ranks carry no information.
        t.p = 1.0;
        return t;
    }

    // Continuity-corrected normal deviate, two-sided.
    double num = t.u - meanU;
    if (num > 0.5)
        num -= 0.5;
    else if (num < -0.5)
        num += 0.5;
    else
        num = 0.0;
    t.z = num / std::sqrt(varU);
    t.p = 2.0 * normalSf(std::fabs(t.z));
    if (t.p > 1.0)
        t.p = 1.0;
    t.usable = true;
    return t;
}

// ------------------------------------------------- trajectory schema

std::uint64_t
hostHash()
{
    // FNV-1a over whatever host identity is portably available.
    std::string id;
#if defined(__unix__) || defined(__APPLE__)
    struct utsname u;
    if (::uname(&u) == 0) {
        id += u.nodename;
        id += '|';
        id += u.machine;
        id += '|';
        id += u.sysname;
    }
    id += '|';
    id += std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
#else
    id = "unknown-host";
#endif
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : id) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
utcTimestamp()
{
    if (const char *fixed = std::getenv("SSIM_BENCH_TIME_UTC"))
        if (*fixed)
            return fixed;
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
#if defined(__unix__) || defined(__APPLE__)
    gmtime_r(&now, &tm);
#else
    tm = *std::gmtime(&now);
#endif
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

Json
pointMeta()
{
    Json meta = buildMeta();
    meta.set("host_hash", std::to_string(hostHash()));
    meta.set("timestamp_utc", utcTimestamp());
    return meta;
}

namespace {

Json
summaryToJson(const SampleSummary &s)
{
    Json j = Json::object();
    j.set("n", Json(static_cast<std::uint64_t>(s.n)));
    j.set("mean", Json(s.mean));
    j.set("median", Json(s.median));
    j.set("mad", Json(s.mad));
    j.set("ci_lo", Json(s.ciLo));
    j.set("ci_hi", Json(s.ciHi));
    j.set("min", Json(s.min));
    j.set("max", Json(s.max));
    return j;
}

} // namespace

Json
makePoint(const std::string &artifact, const std::string &label,
          const std::string &unit, const std::string &direction,
          const std::vector<double> &samples, Json config)
{
    const SampleSummary s = summarize(samples);
    Json row = Json::object();
    row.set("schema", Json(kSchemaV2));
    row.set("artifact", Json(artifact));
    row.set("label", Json(label));
    row.set("meta", pointMeta());
    row.set("config", std::move(config));
    row.set("unit", Json(unit));
    row.set("direction", Json(direction));
    row.set("value", Json(s.median));
    Json arr = Json::array();
    for (double v : samples)
        arr.push(Json(v));
    row.set("samples", std::move(arr));
    row.set("summary", summaryToJson(s));
    return row;
}

bool
parsePoint(const Json &row, Point *out, std::string *error)
{
    auto reject = [&](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };
    const Json *schema = row.find("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != kSchemaV2)
        return reject(std::string("not a ") + kSchemaV2 + " row");
    const Json *value = row.find("value");
    if (!value || !value->isNumber())
        return reject("no numeric 'value'");
    const Json *samples = row.find("samples");
    if (!samples || !samples->isArray() || samples->size() == 0)
        return reject("no 'samples' array");

    Point p;
    for (const Json &v : samples->asArray()) {
        if (!v.isNumber())
            return reject("non-numeric entry in 'samples'");
        p.samples.push_back(v.asNumber());
    }
    auto str = [&](const char *key) -> std::string {
        const Json *v = row.find(key);
        return (v && v->isString()) ? v->asString() : std::string();
    };
    p.artifact = str("artifact");
    p.label = str("label");
    p.unit = str("unit");
    p.direction = str("direction");
    p.value = value->asNumber();
    if (const Json *meta = row.find("meta"))
        p.meta = *meta;
    if (const Json *summary = row.find("summary"))
        p.summary = *summary;
    *out = std::move(p);
    return true;
}

bool
loadTrajectory(const std::string &path, Trajectory *out,
               std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot read '" + path + "'";
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    Json doc;
    std::string parse_error;
    if (!Json::tryParse(ss.str(), doc, &parse_error)) {
        if (error)
            *error = path + ": " + parse_error;
        return false;
    }
    if (!doc.isArray()) {
        if (error)
            *error = path + ": trajectory is not a JSON array";
        return false;
    }
    out->points.clear();
    const auto &rows = doc.asArray();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        Point p;
        std::string why;
        if (!parsePoint(rows[i], &p, &why)) {
            if (error)
                *error = path + ": row " + std::to_string(i) + ": " +
                         why;
            return false;
        }
        out->points.push_back(std::move(p));
    }
    return true;
}

namespace {

/** Write `doc` to `path` via temp + atomic rename. */
bool
writeAtomic(const std::string &path, const Json &doc,
            std::string *error)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) {
            if (error)
                *error = "cannot write '" + tmp + "'";
            return false;
        }
        out << doc.dump(2) << "\n";
        out.flush();
        if (!out) {
            if (error)
                *error = "write to '" + tmp + "' failed";
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (error)
            *error = "cannot rename '" + tmp + "' to '" + path + "'";
        return false;
    }
    return true;
}

/** RAII advisory file lock on `path`.lock (no-op off unix). */
class FileLock
{
  public:
    explicit FileLock(const std::string &path)
    {
#if defined(__unix__) || defined(__APPLE__)
        const std::string lock_path = path + ".lock";
        fd_ = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                     0644);
        if (fd_ >= 0)
            ::flock(fd_, LOCK_EX);
#else
        (void)path;
#endif
    }
    ~FileLock()
    {
#if defined(__unix__) || defined(__APPLE__)
        if (fd_ >= 0) {
            ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
#endif
    }
    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

  private:
    int fd_ = -1;
};

} // namespace

bool
appendPoint(const std::string &path, const Json &row,
            std::string *error)
{
    static std::mutex mu;
    std::lock_guard<std::mutex> lock(mu);
    FileLock file_lock(path);

    Json doc = Json::array();
    {
        std::ifstream in(path);
        if (in) {
            std::ostringstream ss;
            ss << in.rdbuf();
            const std::string text = ss.str();
            Json parsed;
            std::string parse_error;
            if (text.empty()) {
                // fresh file: start a new array
            } else if (Json::tryParse(text, parsed, &parse_error) &&
                       parsed.isArray()) {
                doc = std::move(parsed);
            } else {
                const std::string bak = path + ".bak";
                std::rename(path.c_str(), bak.c_str());
                std::fprintf(stderr,
                             "warning: bench trajectory %s unreadable"
                             " (%s); preserved as %s, starting "
                             "fresh\n",
                             path.c_str(),
                             parse_error.empty() ? "not a JSON array"
                                                 : parse_error.c_str(),
                             bak.c_str());
            }
        }
    }
    doc.push(row);
    return writeAtomic(path, doc, error);
}

// ----------------------------------- sample recorder (bench main)

namespace {

struct LabelSamples
{
    std::string label;
    std::string unit;
    std::string direction;
    std::vector<double> values;
    std::vector<std::uint64_t> iterations;
};

std::mutex recorder_mu;

std::vector<LabelSamples> &
recorderState()
{
    static std::vector<LabelSamples> state;
    return state;
}

} // namespace

void
recordSample(const std::string &label, const std::string &unit,
             const std::string &direction, double value,
             std::uint64_t iterations)
{
    std::lock_guard<std::mutex> lock(recorder_mu);
    std::vector<LabelSamples> &state = recorderState();
    for (LabelSamples &s : state) {
        if (s.label == label) {
            s.values.push_back(value);
            s.iterations.push_back(iterations);
            return;
        }
    }
    state.push_back({label, unit, direction, {value}, {iterations}});
}

void
flushSamples(const std::string &artifact, const std::string &path)
{
    std::vector<LabelSamples> state;
    {
        std::lock_guard<std::mutex> lock(recorder_mu);
        state.swap(recorderState());
    }
    for (const LabelSamples &s : state) {
        // google-benchmark runs every repetition at the iteration
        // count its calibration runs settled on, and each calibration
        // run used fewer; keep only the runs at the label's largest
        // count and drop the rest as warmup.
        std::uint64_t max_iters = 0;
        for (std::uint64_t it : s.iterations)
            max_iters = std::max(max_iters, it);
        std::vector<double> kept;
        std::size_t warmup = 0;
        for (std::size_t i = 0; i < s.values.size(); ++i) {
            if (s.iterations[i] == max_iters)
                kept.push_back(s.values[i]);
            else
                ++warmup;
        }
        if (kept.empty())
            continue;
        Json config = Json::object();
        config.set("repetitions",
                   Json(static_cast<std::uint64_t>(kept.size())));
        config.set("warmup_dropped",
                   Json(static_cast<std::uint64_t>(warmup)));
        config.set("iterations", Json(max_iters));
        Json bootstrap = Json::object();
        bootstrap.set("iterations", Json(kBootstrapIterations));
        bootstrap.set("seed", Json(kBootstrapSeed));
        config.set("bootstrap", std::move(bootstrap));
        std::string error;
        if (!appendPoint(path,
                         makePoint(artifact, s.label, s.unit,
                                   s.direction, kept,
                                   std::move(config)),
                         &error)) {
            std::fprintf(stderr,
                         "warning: cannot append bench datapoint "
                         "for %s: %s\n",
                         s.label.c_str(), error.c_str());
        }
    }
}

// ----------------------------------------------------------- sentinel

const char *
verdictName(Verdict verdict)
{
    switch (verdict) {
    case Verdict::Ok:
        return "ok";
    case Verdict::Regressed:
        return "REGRESSED";
    case Verdict::Improved:
        return "improved";
    case Verdict::Insufficient:
        return "insufficient";
    }
    return "?";
}

namespace {

/** Positive = worse, direction-aware relative median shift. */
double
worseShift(const std::string &direction, double baseline,
           double latest)
{
    if (baseline == 0.0)
        return 0.0;
    const double shift = (latest - baseline) / baseline;
    return direction == "lower" ? shift : -shift;
}

} // namespace

std::vector<LabelVerdict>
sentinelCheck(const Trajectory &trajectory,
              const SentinelConfig &config)
{
    // Group point indices by label, preserving first appearance.
    std::vector<std::pair<std::string, std::vector<std::size_t>>>
        groups;
    for (std::size_t i = 0; i < trajectory.points.size(); ++i) {
        const Point &p = trajectory.points[i];
        bool found = false;
        for (auto &[label, indices] : groups) {
            if (label == p.label) {
                indices.push_back(i);
                found = true;
                break;
            }
        }
        if (!found)
            groups.push_back({p.label, {i}});
    }

    std::vector<LabelVerdict> rows;
    rows.reserve(groups.size());
    for (const auto &[label, indices] : groups) {
        const Point &latest = trajectory.points[indices.back()];
        LabelVerdict v;
        v.label = label;
        v.unit = latest.unit;
        v.latestSamples = latest.samples.size();
        v.latestMedian = median(latest.samples);

        const std::size_t history = indices.size() - 1;
        const std::size_t take = std::min(history, config.window);
        v.baselinePoints = take;
        if (take < config.minBaseline) {
            v.verdict = Verdict::Insufficient;
            v.note = "need " + std::to_string(config.minBaseline) +
                     " baseline points, have " + std::to_string(take);
            rows.push_back(std::move(v));
            continue;
        }

        std::vector<double> baseline;
        for (std::size_t k = history - take; k < history; ++k) {
            const Point &p = trajectory.points[indices[k]];
            baseline.insert(baseline.end(), p.samples.begin(),
                            p.samples.end());
        }
        v.baselineSamples = baseline.size();
        v.baselineMedian = median(baseline);
        v.worsePct = worseShift(latest.direction, v.baselineMedian,
                                v.latestMedian);

        const RankTest test = mannWhitney(latest.samples, baseline);
        v.p = test.p;
        // The normal approximation has no power below a handful of
        // samples per side; there the median threshold alone decides
        // (a trajectory of single-sample points still gates).
        const bool enough = test.usable &&
                            latest.samples.size() >= 3 &&
                            baseline.size() >= 3;
        v.tested = enough;
        const bool significant = !enough || test.p < config.alpha;
        if (!enough)
            v.note = "median-only (too few samples for rank test)";

        if (v.worsePct > config.threshold && significant)
            v.verdict = Verdict::Regressed;
        else if (v.worsePct < -config.threshold && significant)
            v.verdict = Verdict::Improved;
        else
            v.verdict = Verdict::Ok;
        rows.push_back(std::move(v));
    }
    return rows;
}

std::string
renderVerdictTable(const std::vector<LabelVerdict> &rows,
                   const SentinelConfig &config)
{
    char title[160];
    std::snprintf(title, sizeof(title),
                  "bench sentinel: newest point vs rolling baseline "
                  "(window %zu, threshold %.1f%%, alpha %.2f)",
                  config.window, config.threshold * 100.0,
                  config.alpha);
    Table t(title);
    t.setHeader({"label", "unit", "baseline", "latest", "worse",
                 "p(MWU)", "pts", "verdict"});
    for (const LabelVerdict &v : rows) {
        Table &r = t.row();
        r.cell(v.label).cell(v.unit.empty() ? "-" : v.unit);
        if (v.verdict == Verdict::Insufficient) {
            r.cell("-").cell(formatValue(v.latestMedian)).cell("-");
            r.cell("-");
        } else {
            r.cell(formatValue(v.baselineMedian));
            r.cell(formatValue(v.latestMedian));
            r.cell(formatPct(v.worsePct));
            r.cell(v.tested ? formatP(v.p) : "-");
        }
        r.cell(v.baselinePoints);
        std::string verdict = verdictName(v.verdict);
        if (!v.note.empty())
            verdict += "  (" + v.note + ")";
        r.cell(verdict);
    }
    return t.render();
}

bool
anyRegression(const std::vector<LabelVerdict> &rows)
{
    for (const LabelVerdict &v : rows)
        if (v.verdict == Verdict::Regressed)
            return true;
    return false;
}

bool
compareLabels(const Trajectory &trajectory, const std::string &labelA,
              const std::string &labelB, double budgetPct,
              CompareResult *out, std::string *error)
{
    CompareResult r;
    r.labelA = labelA;
    r.labelB = labelB;
    std::vector<double> a;
    std::vector<double> b;
    std::string direction = "higher";
    for (const Point &p : trajectory.points) {
        if (p.label == labelA) {
            a.insert(a.end(), p.samples.begin(), p.samples.end());
            r.unit = p.unit;
            direction = p.direction;
        } else if (p.label == labelB) {
            b.insert(b.end(), p.samples.begin(), p.samples.end());
        }
    }
    if (a.empty() || b.empty()) {
        if (error)
            *error = "label '" + (a.empty() ? labelA : labelB) +
                     "' has no samples in the trajectory";
        return false;
    }
    r.samplesA = a.size();
    r.samplesB = b.size();
    r.medianA = median(a);
    r.medianB = median(b);
    r.overheadPct =
        worseShift(direction, r.medianA, r.medianB) * 100.0;
    r.p = mannWhitney(b, a).p;
    r.withinBudget = r.overheadPct <= budgetPct;
    *out = r;
    return true;
}

std::string
renderCompare(const CompareResult &r, double budgetPct)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s%s vs %s: %+.2f%% overhead %s the %.1f%% budget\n"
        "  %s median %s, %s median %s [%s], p(MWU) %s "
        "(%zu vs %zu samples)\n",
        r.withinBudget ? "" : "WARNING: ", r.labelB.c_str(),
        r.labelA.c_str(), r.overheadPct,
        r.withinBudget ? "within" : "EXCEEDS", budgetPct,
        r.labelA.c_str(),
        formatValue(r.medianA).c_str(), r.labelB.c_str(),
        formatValue(r.medianB).c_str(),
        r.unit.empty() ? "-" : r.unit.c_str(),
        formatP(r.p).c_str(), r.samplesB, r.samplesA);
    return buf;
}

} // namespace ilp::bench
