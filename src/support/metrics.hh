/**
 * @file
 * ilp::metrics — process-wide runtime metrics for the pipeline layer
 * (sweeps, caches, compile and timing phases): counters, gauges,
 * and bounded-error streaming histograms with quantile queries.
 *
 * How this differs from ilp::stats: a stats Registry is built per
 * *run* and frozen into the RunOutcome snapshot, so it must be
 * byte-deterministic across job counts; metrics are *operational*
 * process totals (how many cells ran, how long compiles took, cache
 * hit rates) that accumulate across every Study in the process and
 * are exported on demand — the `ssim --metrics-json` /
 * Prometheus-exposition surface that ssimd will serve over the wire.
 * Where the two overlap (cache hit counters, cell counts) they are
 * two independent accounting paths over the same events, and a
 * test-enforced invariant keeps them reconciled exactly — the PALMED
 * lesson that measurement layers need their own validation story.
 *
 * Concurrency: every update is a relaxed atomic; no locks anywhere on
 * the update path.  Registration (find-or-create by name) takes a
 * mutex but is meant to happen once per call site via a static
 * reference.
 *
 * Histograms are log-linear (HDR-style): each power of two is split
 * into kSubBuckets linear sub-buckets, bounding the relative error of
 * any quantile estimate by 1/kSubBuckets (~3.1%) while keeping
 * observe() to a handful of integer ops and one relaxed increment.
 */

#ifndef SUPERSYM_SUPPORT_METRICS_HH
#define SUPERSYM_SUPPORT_METRICS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/json.hh"

namespace ilp::metrics {

class Registry;

/** Common identity for every registered metric. */
class Metric
{
  public:
    Metric(std::string name, std::string help)
        : name_(std::move(name)), help_(std::move(help))
    {
    }
    virtual ~Metric() = default;

    const std::string &name() const { return name_; }
    const std::string &help() const { return help_; }

    /** Prometheus TYPE keyword: "counter", "gauge", "summary". */
    virtual const char *type() const = 0;
    /** Value as JSON (number, or an object for histograms). */
    virtual Json json() const = 0;
    /** Append Prometheus exposition lines (no HELP/TYPE header). */
    virtual void exposition(std::string &out) const = 0;
    /** Zero the value, keeping the registration (for tests). */
    virtual void reset() = 0;

  private:
    std::string name_;
    std::string help_;
};

/** Monotonic event count.  inc() is one relaxed fetch_add. */
class Counter : public Metric
{
  public:
    using Metric::Metric;

    void inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    const char *type() const override { return "counter"; }
    Json json() const override { return Json(value()); }
    void exposition(std::string &out) const override;
    void reset() override { value_.store(0); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins instantaneous value (bytes held, utilization). */
class Gauge : public Metric
{
  public:
    using Metric::Metric;

    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    const char *type() const override { return "gauge"; }
    Json json() const override { return Json(value()); }
    void exposition(std::string &out) const override;
    void reset() override { value_.store(0.0); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Bounded-error streaming histogram over non-negative doubles.
 * observe() maps the value to one of a fixed set of log-linear
 * buckets (no allocation, one relaxed increment); quantile(q)
 * returns the geometric midpoint of the bucket holding the q-th
 * sample, which is within a factor of (1 + 1/kSubBuckets) of the
 * exact order statistic.
 */
class Histogram : public Metric
{
  public:
    /** Linear sub-buckets per power of two; bounds relative error. */
    static constexpr int kSubBuckets = 32;
    /** Binary exponents covered: [-kExpRange, +kExpRange).  Values
     *  outside clamp to the edge buckets (1e-12s .. 1e12 for spans —
     *  far beyond anything the pipeline produces). */
    static constexpr int kExpRange = 40;
    /** Bucket 0 holds zero and negative observations. */
    static constexpr int kNumBuckets = 2 * kExpRange * kSubBuckets + 1;

    Histogram(std::string name, std::string help);

    void observe(double v);

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    double sum() const { return sum_.load(std::memory_order_relaxed); }

    /**
     * Estimate of the q-th quantile (q in [0, 1]) of everything
     * observed so far; 0 when empty.  Relative error is bounded by
     * the bucket width (1/kSubBuckets).
     */
    double quantile(double q) const;

    const char *type() const override { return "summary"; }
    Json json() const override;
    void exposition(std::string &out) const override;
    void reset() override;

    /**
     * Fold another histogram's observations into this one (bucket-wise
     * sum; identical bucketing makes this exact — quantile error after
     * a merge is no worse than either input's).  Used to combine
     * per-shard histograms into one process view.  Not atomic as a
     * whole: concurrent observes on either side land in one or the
     * other, never lost.
     */
    void merge(const Histogram &other);

    /** Bucket index for a value; exposed for tests. */
    static int bucketIndex(double v);
    /** Representative (geometric midpoint) value of a bucket. */
    static double bucketValue(int index);

  private:
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/**
 * The process-wide metric registry.  Metrics are created on first
 * request and live forever; returned references are stable, so call
 * sites cache them in a static and pay only the atomic update per
 * event.  Requesting an existing name as a different kind panics.
 */
class Registry
{
  public:
    /** The global registry (what the CLI exports). */
    static Registry &global();

    Counter &counter(const std::string &name,
                     const std::string &help = "");
    Gauge &gauge(const std::string &name, const std::string &help = "");
    Histogram &histogram(const std::string &name,
                         const std::string &help = "");

    /** Snapshot as a JSON object: name -> {type, help, value...}. */
    Json json() const;

    /**
     * Prometheus text exposition format (version 0.0.4): HELP/TYPE
     * comments plus one sample line per value, histograms as
     * summaries with p50/p90/p99 quantile labels.
     */
    std::string prometheus() const;

    /** Zero every registered metric (tests; keeps registrations so
     *  cached references stay valid). */
    void reset();

  private:
    Metric *find(const std::string &name) const;

    template <typename T>
    T &getOrCreate(const std::string &name, const std::string &help);

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Metric>> metrics_;
};

/** RAII wall-clock timer feeding a histogram in seconds (two
 *  steady_clock reads). */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram &h)
        : hist_(h), t0_(std::chrono::steady_clock::now())
    {
    }
    ~ScopedTimer()
    {
        hist_.observe(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0_)
                          .count());
    }
    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Histogram &hist_;
    std::chrono::steady_clock::time_point t0_;
};

} // namespace ilp::metrics

#endif // SUPERSYM_SUPPORT_METRICS_HH
