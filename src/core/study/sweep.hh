/**
 * @file
 * The parallel sweep engine.
 *
 * The paper's whole method is evaluating one (workload, compile
 * options) pair across many machine specifications (§3–§4).  Every
 * such sweep is embarrassingly parallel — cells share nothing but
 * immutable inputs — and highly cache-friendly: only the list
 * scheduler reads the machine, so every cell of one (workload,
 * compile options) pair shares the machine-independent part of its
 * compilation.
 *
 * SweepRunner fans cell evaluations out over a fixed pool of
 * std::thread workers pulling indices off an atomic queue; results
 * land in an index-ordered vector, so consumers that fill tables or
 * write JSON documents after the barrier produce byte-identical
 * output regardless of the job count.
 *
 * CompileCache shares that prefix between cells: one parse, optimize
 * and allocate per distinct (workload, machine-independent compile
 * options) key, concurrency-safe via per-entry futures so two workers
 * never duplicate a prefix.  Each request schedules its own copy of
 * the prefix for its machine and alias level.  Cached prefixes are
 * immutable, and each cell runs its own executor and IssueEngine
 * (runOnMachine) over its own module, so sharing is safe by
 * construction.
 *
 * Job-count resolution (see defaultSweepJobs): explicit argument >
 * SSIM_JOBS environment variable > std::thread::hardware_concurrency.
 */

#ifndef SUPERSYM_CORE_STUDY_SWEEP_HH
#define SUPERSYM_CORE_STUDY_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/study/driver.hh"
#include "sim/cancel.hh"
#include "support/faultinject.hh"

namespace ilp {

/**
 * Worker count used when a SweepRunner is built without an explicit
 * job count: SSIM_JOBS when set to a positive integer, otherwise the
 * hardware concurrency (at least 1).  A malformed SSIM_JOBS warns and
 * falls through.
 */
int defaultSweepJobs();

/** One failed sweep cell: a stable error code plus the formatted
 *  diagnostic text.  Deterministic for a given cell — the same cell
 *  fails identically at any job count. */
struct CellError
{
    ErrCode code = ErrCode::None;
    std::string message;

    bool valid() const { return code != ErrCode::None; }
};

/** Translate the in-flight exception into a CellError (call from a
 *  catch handler): DiagException and TrapException keep their stable
 *  codes and full formatted text; anything else maps to E0999. */
CellError currentCellError();

/** Record a keep-going cell failure with the observability layer:
 *  stamps the error's E-code onto the enclosing flight-recorder span
 *  (so the worker timeline shows the trapped cell instead of
 *  truncating) and notifies the live progress reporter. */
void noteCellFailure(const CellError &error);

/** Value-or-error result of one sweep cell under keep-going mode. */
template <typename T>
struct CellOutcome
{
    T value{};
    CellError error;
    /** Evaluation attempts this cell took (1 = first try succeeded;
     *  more only when CellPolicy::maxRetries allows retries). */
    int attempts = 1;
    /** The cell failed permanently (or exhausted its retries) and
     *  was isolated from the sweep. */
    bool quarantined = false;

    bool ok() const { return !error.valid(); }
};

/** Per-cell survivability policy for mapHardened. */
struct CellPolicy
{
    /** Cooperative watchdog budget per *attempt*; <= 0 disables. */
    double timeoutSeconds = 0.0;
    /** Max retries after the first attempt, for transient-classed
     *  errors only (errCodeTransient). */
    int maxRetries = 0;
    /** Quarantine failing cells instead of aborting the sweep. */
    bool keepGoing = false;
};

/** Sweep-wide survivability accounting (stats-json `meta.cells`). */
struct HardeningTotals
{
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t quarantined = 0;
};

/** Result of a hardened sweep: index-ordered outcomes plus totals. */
template <typename T>
struct HardenedSweep
{
    std::vector<CellOutcome<T>> cells;
    HardeningTotals totals;
};

namespace detail {

/** Sleep the exponential-backoff delay (deterministic jitter from
 *  (cell, attempt), ~1-100 ms) before a retry. */
void backoffBeforeRetry(std::size_t cell, int attempt);

} // namespace detail

/**
 * A fixed worker pool over an atomic-index work queue.  Stateless
 * between run() calls; cheap to construct.  jobs == 1 degenerates to
 * a plain serial loop on the calling thread, which is the reference
 * behaviour parallel runs must reproduce bit-for-bit.
 */
class SweepRunner
{
  public:
    /** @param jobs Worker count; <= 0 resolves via defaultSweepJobs. */
    explicit SweepRunner(int jobs = 0);

    int jobs() const { return jobs_; }

    /**
     * Evaluate fn(0) .. fn(count-1), each exactly once, across the
     * pool (the calling thread participates).  The first exception
     * thrown by any cell stops the sweep and is rethrown here after
     * all workers have joined.
     */
    void run(std::size_t count,
             const std::function<void(std::size_t)> &fn) const;

    /**
     * run() collecting fn(i) into slot i of the result vector — the
     * deterministic merge point: results are index-ordered no matter
     * which worker computed them, so downstream table/document
     * assembly is independent of the job count.
     */
    template <typename T, typename Fn>
    std::vector<T>
    map(std::size_t count, Fn &&fn) const
    {
        std::vector<T> out(count);
        run(count, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /**
     * The survivable sweep: map() with per-attempt watchdog
     * deadlines, bounded retry with exponential backoff for
     * transient-classed errors (injected faults, memory pressure),
     * and quarantine of permanently failing cells.  Values stay
     * index-ordered and — because retried cells recompute the same
     * deterministic computation — byte-identical to a fault-free run.
     * With keepGoing a quarantined cell is captured as a CellError in
     * its own slot while every other cell still runs to completion;
     * because errors land at the failing index rather than by arrival
     * order, the outcomes (values and errors both) are deterministic
     * across job counts.  Without keepGoing a quarantined cell aborts
     * the sweep by rethrowing (the fail-fast contract of run()).
     */
    template <typename T, typename Fn>
    HardenedSweep<T>
    mapHardened(std::size_t count, const CellPolicy &policy,
                Fn &&fn) const
    {
        HardenedSweep<T> out;
        out.cells.resize(count);
        std::atomic<std::uint64_t> retries{0}, timeouts{0},
            quarantined{0};
        run(count, [&](std::size_t i) {
            CellOutcome<T> &slot = out.cells[i];
            for (int attempt = 0;; ++attempt) {
                std::exception_ptr raised;
                try {
                    cancel::ScopedCellDeadline watchdog(
                        policy.timeoutSeconds);
                    if (fault::enabled())
                        fault::maybeInject("cell");
                    slot.value = fn(i);
                } catch (...) {
                    raised = std::current_exception();
                    slot.error = currentCellError();
                }
                slot.attempts = attempt + 1;
                if (!raised) {
                    slot.error = {};
                    return;
                }
                if (slot.error.code == ErrCode::TrapDeadlineExceeded)
                    timeouts.fetch_add(1, std::memory_order_relaxed);
                if (errCodeTransient(slot.error.code) &&
                    attempt < policy.maxRetries) {
                    retries.fetch_add(1, std::memory_order_relaxed);
                    detail::backoffBeforeRetry(i, attempt);
                    continue;
                }
                slot.quarantined = true;
                quarantined.fetch_add(1, std::memory_order_relaxed);
                noteCellFailure(slot.error);
                if (!policy.keepGoing)
                    std::rethrow_exception(raised);
                return;
            }
        });
        out.totals.retries = retries.load();
        out.totals.timeouts = timeouts.load();
        out.totals.quarantined = quarantined.load();
        return out;
    }

  private:
    int jobs_;
};

/**
 * A concurrency-safe cache of compilation prefixes.
 *
 * An entry is the machine-independent prefix of a compilation
 * (allocateWorkloadChecked: parse, unroll, optimize, allocate), keyed
 * by the workload identity (name + source hash), opt level, unroll
 * factor, careful flag and temp/home register layout.  compile()
 * copies the entry's module and schedules the copy for the requested
 * machine and alias level, so cells that differ only in the machine
 * or the alias level share one prefix.  The first requester of a
 * prefix compiles it; concurrent requesters block on the entry's
 * future instead of recompiling.  The prefix's telemetry is captured
 * once on the miss and handed, with the requester's own scheduling
 * phase, to every requester, so stats trees do not depend on who hit
 * the cache.
 */
class CompileCache
{
  public:
    /**
     * Compiled module for (workload, machine, options): the cached
     * prefix, compiled on first use, copied and scheduled for
     * `machine`.  Every call returns a module of its own.
     * `telemetry`, when non-null, receives the prefix's telemetry
     * plus this scheduling's.
     */
    std::shared_ptr<const Module>
    compile(const Workload &workload, const MachineConfig &machine,
            const CompileOptions &options,
            CompileTelemetry *telemetry = nullptr);

    /** The identity of a whole compilation: the prefix key's fields
     *  plus the alias level and every machine parameter the scheduler
     *  can observe, but not the machine's name.  Keys sweep journals
     *  and deduplicated runs; exposed for tests and diagnostics. */
    static std::string key(const Workload &workload,
                           const MachineConfig &machine,
                           const CompileOptions &options);

    /** Lookups served from an existing prefix. */
    std::uint64_t hits() const { return hits_.load(); }
    /** Lookups that had to compile a prefix. */
    std::uint64_t misses() const { return misses_.load(); }
    /** Prefix compilations that failed.  Failed entries are evicted
     *  (never cached), so a later request for the same key retries. */
    std::uint64_t failures() const { return failures_.load(); }
    /** Distinct prefixes held. */
    std::size_t size() const;

  private:
    struct Prefix
    {
        AllocatedModule allocated;
        CompileTelemetry telemetry;
    };

    mutable std::mutex mu_;
    std::map<std::string, std::shared_future<Prefix>> entries_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> failures_{0};
};

} // namespace ilp

#endif // SUPERSYM_CORE_STUDY_SWEEP_HH
