#include "core/study/sweep.hh"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "sim/trap.hh"
#include "support/logging.hh"
#include "support/trace.hh"

namespace ilp {

namespace {

/** One cell evaluation inside its flight-recorder span, which a
 *  keep-going failure annotates rather than truncates. */
void
runSweepCell(const std::function<void(std::size_t)> &fn, std::size_t i)
{
    trace::ScopedSpan span("cell", "sweep");
    if (span.armed())
        span.detail("cell " + std::to_string(i));
    fn(i);
}

} // namespace

namespace detail {

void
backoffBeforeRetry(std::size_t cell, int attempt)
{
    // Exponential base (1 ms << attempt, capped at 64 ms) scaled by
    // a deterministic jitter in [0.5, 1.5) drawn from (cell,
    // attempt), so colliding retries decorrelate identically on
    // every run.
    const int exp = attempt < 7 ? attempt : 6;
    const double base_ms = static_cast<double>(1u << exp);
    std::uint64_t h = (static_cast<std::uint64_t>(cell) << 32) ^
                      static_cast<std::uint64_t>(attempt + 1);
    h += 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    h ^= h >> 31;
    const double jitter = 0.5 + static_cast<double>(h & 0x3FF) / 1024.0;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(base_ms * jitter));
}

} // namespace detail

void
noteCellFailure(const CellError &error)
{
    if (trace::active()) {
        trace::annotateCurrentSpan(
            "error[" + std::string(errCodeId(error.code)) + "]");
    }
}

CellError
currentCellError()
{
    try {
        throw;
    } catch (const DiagException &e) {
        return {e.code(), formatDiags(e.diags())};
    } catch (const TrapException &e) {
        return {e.trap().code, e.trap().format()};
    } catch (const std::bad_alloc &) {
        // Memory pressure — real or injected — is transient: the
        // hardened runner may retry the cell once pressure clears.
        return {ErrCode::ResourceExhausted, "out of memory"};
    } catch (const std::exception &e) {
        return {ErrCode::Internal, e.what()};
    } catch (...) {
        return {ErrCode::Internal, "unknown error"};
    }
}

int
defaultSweepJobs()
{
    if (const char *env = std::getenv("SSIM_JOBS"); env && *env) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end && *end == '\0' && v >= 1 && v <= 4096)
            return static_cast<int>(v);
        SS_WARN("SSIM_JOBS='", env,
                "' is not a job count in [1, 4096]; using hardware "
                "concurrency");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

SweepRunner::SweepRunner(int jobs)
    : jobs_(jobs > 0 ? jobs : defaultSweepJobs())
{
}

void
SweepRunner::run(std::size_t count,
                 const std::function<void(std::size_t)> &fn) const
{
    if (count == 0)
        return;
    const std::size_t workers =
        std::min(static_cast<std::size_t>(jobs_), count);
    if (workers <= 1) {
        if (trace::active())
            trace::setThreadTrack(0, "worker 0");
        for (std::size_t i = 0; i < count; ++i)
            runSweepCell(fn, i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mu;

    auto body = [&](std::uint32_t worker) {
        if (trace::active()) {
            trace::setThreadTrack(worker,
                                  "worker " + std::to_string(worker));
        }
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                runSweepCell(fn, i);
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(error_mu);
                    if (!error)
                        error = std::current_exception();
                }
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t t = 1; t < workers; ++t)
        pool.emplace_back(body, static_cast<std::uint32_t>(t));
    body(0); // the calling thread is worker 0
    for (auto &th : pool)
        th.join();
    if (error)
        std::rethrow_exception(error);
}

// ------------------------------------------------------- CompileCache

namespace {

/** Workload identity: name plus the size and hash of its source. */
std::string
workloadIdentity(const Workload &workload)
{
    return workload.name + '#' +
           std::to_string(workload.source.size()) + '.' +
           std::to_string(std::hash<std::string>{}(workload.source));
}

/** Everything allocateWorkloadChecked() reads of the options. */
std::string
prefixKey(const Workload &workload, const CompileOptions &options)
{
    std::string k = workloadIdentity(workload);
    k += "|o";
    k += std::to_string(static_cast<int>(options.level));
    k += '.';
    k += std::to_string(options.unroll.factor);
    k += options.unroll.careful ? 'c' : 'n';
    k += std::to_string(options.layout.numTemp);
    k += '.';
    k += std::to_string(options.layout.numHome);
    return k;
}

} // namespace

std::string
CompileCache::key(const Workload &workload, const MachineConfig &machine,
                  const CompileOptions &options)
{
    std::string k = workloadIdentity(workload);
    k += "|o";
    k += std::to_string(static_cast<int>(options.level));
    k += '.';
    k += std::to_string(options.unroll.factor);
    k += options.unroll.careful ? 'c' : 'n';
    k += std::to_string(static_cast<int>(options.alias));
    k += '.';
    k += std::to_string(options.layout.numTemp);
    k += '.';
    k += std::to_string(options.layout.numHome);

    // Everything the compiler/scheduler can observe about the
    // machine; deliberately not its name, so re-labelled variants of
    // one specification share a compilation.
    k += "|w";
    k += std::to_string(machine.issueWidth);
    k += 'm';
    k += std::to_string(machine.pipelineDegree);
    k += machine.issueAcrossBranches ? "b1" : "b0";
    k += 'r';
    k += std::to_string(machine.regs.numTemp);
    k += '.';
    k += std::to_string(machine.regs.numHome);
    k += "|L";
    for (int l : machine.latency) {
        k += std::to_string(l);
        k += ',';
    }
    k += "|U";
    for (const FuncUnit &u : machine.units) {
        k += 'x';
        k += std::to_string(u.multiplicity);
        k += 'i';
        k += std::to_string(u.issueLatency);
        k += 'c';
        for (InstrClass c : u.classes) {
            k += std::to_string(static_cast<int>(c));
            k += '.';
        }
        k += ';';
    }
    return k;
}

std::shared_ptr<const Module>
CompileCache::compile(const Workload &workload,
                      const MachineConfig &machine,
                      const CompileOptions &options,
                      CompileTelemetry *telemetry)
{
    machine.validate();
    const std::string k = prefixKey(workload, options);

    std::shared_future<Prefix> future;
    std::shared_ptr<std::promise<Prefix>> fill;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(k);
        if (it == entries_.end()) {
            fill = std::make_shared<std::promise<Prefix>>();
            future = fill->get_future().share();
            entries_.emplace(k, future);
        } else {
            future = it->second;
        }
    }

    if (fill) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        try {
            trace::ScopedSpan span("compile", "compile");
            if (span.armed())
                span.detail(workload.name);
            if (fault::enabled())
                fault::maybeInject("compile");
            Prefix p;
            Result<AllocatedModule> r = allocateWorkloadChecked(
                workload.source, options, &p.telemetry, workload.name);
            if (!r.ok())
                r.raise(); // DiagException with the full list
            p.allocated = r.take();
            fill->set_value(std::move(p));
        } catch (...) {
            // A failed compile must not poison the cache: hand the
            // exception to the waiters already parked on this entry,
            // then evict it so later requesters retry instead of
            // replaying a stale failure forever.
            failures_.fetch_add(1, std::memory_order_relaxed);
            fill->set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mu_);
            entries_.erase(k);
        }
    } else {
        hits_.fetch_add(1, std::memory_order_relaxed);
        // A hit on an entry another worker is still compiling is a
        // wait, and the worker timeline should show it as one.
        if (trace::active() &&
            future.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
            trace::ScopedSpan span("compile-wait", "cache");
            if (span.armed())
                span.detail(workload.name);
            future.wait();
        }
    }

    const Prefix &p = future.get(); // rethrows a failed compile
    if (telemetry)
        *telemetry = p.telemetry;
    Module module = p.allocated.module;
    scheduleModule(module, p.allocated.frontendLocs, machine,
                   optimizeOptions(options), telemetry);
    return std::make_shared<const Module>(std::move(module));
}

std::size_t
CompileCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

} // namespace ilp
