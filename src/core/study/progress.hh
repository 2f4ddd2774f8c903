/**
 * @file
 * Live progress reporting for long sweeps: cells/s, ETA, the
 * compile-cache hit rate, and worker utilization, printed to stderr at
 * a throttled interval (`ssim ilp/suite --progress`).
 *
 * The reporter is installed process-wide (ProgressReporter::current)
 * so SweepRunner workers can notify it without plumbing a pointer
 * through every map() call site.  Every notification is a couple of
 * relaxed atomics; the thread that crosses the throttle interval
 * elects itself by CAS and formats the line, so workers never contend
 * on a lock.  Under --keep-going a trapped cell still counts as
 * finished (and shows up in the `failed` field) — faulted cells must
 * degrade the report, never truncate it.
 */

#ifndef SUPERSYM_CORE_STUDY_PROGRESS_HH
#define SUPERSYM_CORE_STUDY_PROGRESS_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

namespace ilp {

class CompileCache;

class ProgressReporter
{
  public:
    struct Config
    {
        /** Cells the sweep will evaluate (for ETA / percent). */
        std::size_t totalCells = 0;
        /** Worker count (for the utilization denominator). */
        int jobs = 1;
        /** Minimum milliseconds between printed updates. */
        double intervalMs = 250.0;
        /** Cache hit-rate source (optional). */
        const CompileCache *compileCache = nullptr;
        /** Destination stream (stderr; tests substitute a file). */
        std::FILE *out = nullptr;
    };

    /** Constructing installs the reporter as current(). */
    explicit ProgressReporter(const Config &config);
    /** Destruction uninstalls it (without a final report). */
    ~ProgressReporter();
    ProgressReporter(const ProgressReporter &) = delete;
    ProgressReporter &operator=(const ProgressReporter &) = delete;

    /** The installed reporter, or nullptr (what SweepRunner checks). */
    static ProgressReporter *current();

    /** Completion timestamps kept for the rate estimate: the ETA is
     *  computed from the last kRateWindow cells, not the whole run,
     *  so a slow cold-cache start (or a fast cache-hit start) stops
     *  skewing the forecast once a window of completions is in. */
    static constexpr std::size_t kRateWindow = 64;

    /** One cell completed, taking `durSeconds` of worker time.
     *  Prints a throttled update when the interval elapsed. */
    void cellFinished(double durSeconds);

    /** Record a completion at a synthetic elapsed time (seconds since
     *  start).  Test seam for cellFinished's timestamping — lets the
     *  ETA convergence test replay a schedule without sleeping. */
    void noteCellAt(double elapsedSeconds);

    /** The finishing cell failed (keep-going mode). */
    void noteFailure();

    /** Print the final summary line unconditionally. */
    void finish();

    std::size_t cellsDone() const
    {
        return done_.load(std::memory_order_relaxed);
    }
    std::size_t cellsFailed() const
    {
        return failed_.load(std::memory_order_relaxed);
    }

    /** The status line for `elapsedSeconds` (pure; for tests). */
    std::string renderLine(double elapsedSeconds) const;

  private:
    double elapsedSeconds() const;
    /** Cells/s over the trailing completion window (falls back to the
     *  whole-run average until two completions are recorded). */
    double windowRate(double elapsedSeconds) const;
    void maybeReport();

    Config config_;
    std::chrono::steady_clock::time_point start_;
    std::atomic<std::size_t> done_{0};
    std::atomic<std::size_t> failed_{0};
    /** Total worker-busy microseconds across finished cells. */
    std::atomic<std::uint64_t> busyUs_{0};
    /** Elapsed microseconds at the last printed update. */
    std::atomic<std::int64_t> lastReportUs_{-1};
    /** Ring of completion timestamps (elapsed microseconds); slot =
     *  completion index % kRateWindow.  Writers race benignly with
     *  the render thread — a torn window only perturbs one printed
     *  estimate. */
    std::array<std::atomic<std::int64_t>, kRateWindow> stampUs_{};
    /** Completions recorded into the ring (monotonic). */
    std::atomic<std::uint64_t> stamps_{0};
    bool tty_ = false;
};

} // namespace ilp

#endif // SUPERSYM_CORE_STUDY_PROGRESS_HH
