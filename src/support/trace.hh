/**
 * @file
 * ilp::trace — the span flight recorder, the one span source (stats
 * carry no host time): low-overhead wall-clock tracing of the whole
 * pipeline (compile, timing runs, functional execution, cache waits,
 * sweep cells), exported as Chrome tracing JSON with one timeline
 * track per worker thread.
 *
 * Design rules, in order:
 *
 *  1. **No lock on the hot path.**  Spans are appended to a
 *     thread-local buffer; the only mutex is taken once per thread
 *     per recording session (registration) and once at drain time.
 *     Recording threads must be joined before Recorder::stop() —
 *     SweepRunner guarantees this by construction.
 *  2. **Zero cost when off.**  With no session active, constructing a
 *     ScopedSpan is a single relaxed atomic load and a branch: no
 *     clock read, no allocation.  Configuring with
 *     -DSSIM_DISABLE_FLIGHT_RECORDER=ON compiles the recorder out
 *     entirely (every call site collapses to nothing).
 *  3. **Never perturb results.**  Spans observe wall time only; they
 *     touch no simulator state, so traced and untraced sweeps produce
 *     byte-identical simulation output (enforced by check.sh).
 *
 * Span names are static strings (categories too); the optional
 * `detail` annotation is the only per-span allocation and is built
 * only while a session is active.  Worker tracks are labelled by
 * SweepRunner ("worker 0" is the calling thread), so a sweep's trace
 * shows exactly where every worker spent its wall-clock time —
 * compiling, executing, or parked on another worker's cache
 * future.
 */

#ifndef SUPERSYM_SUPPORT_TRACE_HH
#define SUPERSYM_SUPPORT_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace ilp::trace {

/** One completed span, in microseconds since the session epoch. */
struct Span
{
    const char *name = "";
    const char *cat = "";
    /** Optional dynamic annotation (cell index, workload, E-code). */
    std::string detail;
    double startUs = 0.0;
    double durUs = 0.0;
    /** Timeline track (worker id for sweep threads). */
    std::uint32_t track = 0;
};

/** Everything one recording session captured. */
struct Recording
{
    /** Spans sorted by (track, start, longest-first). */
    std::vector<Span> spans;
    /** track id -> label ("worker 3"), sorted by track. */
    std::vector<std::pair<std::uint32_t, std::string>> tracks;
};

#ifndef SSIM_NO_FLIGHT_RECORDER

/** Is a recording session active?  One relaxed load. */
bool active();

/**
 * Append `detail` to the innermost active span on this thread (a
 * no-op when no span or no session is active).  Lets keep-going
 * sweeps stamp a trapped cell's E-code onto the cell span instead of
 * truncating the worker timeline.
 */
void annotateCurrentSpan(const std::string &detail);

/**
 * Bind the current thread to a timeline track.  SweepRunner labels
 * its pool "worker 0" (the calling thread) through "worker N-1";
 * unlabelled threads get tracks after the labelled ones at drain.
 */
void setThreadTrack(std::uint32_t track, const std::string &label);

/**
 * RAII span.  Construct with *static* name/category strings; the
 * span is recorded (on this thread's buffer) when the scope exits.
 * When no session is active, construction and destruction are a
 * branch each.
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, const char *cat);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Recording?  Guard any work done only to build `detail`. */
    bool armed() const { return armed_; }
    /** Attach/append a dynamic annotation. */
    void detail(const std::string &d);

  private:
    friend void annotateCurrentSpan(const std::string &);

    const char *name_ = "";
    const char *cat_ = "";
    std::string detail_;
    std::int64_t startNs_ = 0;
    ScopedSpan *parent_ = nullptr;
    bool armed_ = false;
};

/** The process-wide recorder. */
class Recorder
{
  public:
    static Recorder &instance();

    /** Begin a session: clears prior buffers, sets the epoch, and
     *  arms ScopedSpan.  Restarting an active session is allowed. */
    void start();

    /**
     * End the session and drain every thread buffer.  All recording
     * threads must have been joined (SweepRunner does); spans from a
     * thread still inside a ScopedSpan are dropped.
     */
    Recording stop();

  private:
    Recorder() = default;
};

#else // SSIM_NO_FLIGHT_RECORDER: every call site compiles to nothing.

inline bool active() { return false; }
inline void annotateCurrentSpan(const std::string &) {}
inline void setThreadTrack(std::uint32_t, const std::string &) {}

class ScopedSpan
{
  public:
    ScopedSpan(const char *, const char *) {}
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    bool armed() const { return false; }
    void detail(const std::string &) {}
};

class Recorder
{
  public:
    static Recorder &instance()
    {
        static Recorder r;
        return r;
    }
    void start() {}
    Recording stop() { return {}; }

  private:
    Recorder() = default;
};

#endif // SSIM_NO_FLIGHT_RECORDER

} // namespace ilp::trace

#endif // SUPERSYM_SUPPORT_TRACE_HH
