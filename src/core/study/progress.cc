#include "core/study/progress.hh"

#include <cmath>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "core/study/sweep.hh"

namespace ilp {

namespace {

std::atomic<ProgressReporter *> g_current{nullptr};

/** "1m23s" / "45s" — coarse is fine for an ETA. */
std::string
renderDuration(double seconds)
{
    if (!std::isfinite(seconds) || seconds < 0.0)
        return "?";
    const auto total = static_cast<std::int64_t>(seconds + 0.5);
    char buf[64];
    if (total >= 3600) {
        std::snprintf(buf, sizeof(buf), "%lldh%02lldm",
                      static_cast<long long>(total / 3600),
                      static_cast<long long>((total % 3600) / 60));
    } else if (total >= 60) {
        std::snprintf(buf, sizeof(buf), "%lldm%02llds",
                      static_cast<long long>(total / 60),
                      static_cast<long long>(total % 60));
    } else {
        std::snprintf(buf, sizeof(buf), "%llds",
                      static_cast<long long>(total));
    }
    return buf;
}

std::string
renderPercent(std::uint64_t hits, std::uint64_t misses)
{
    const std::uint64_t total = hits + misses;
    if (total == 0)
        return "-";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f%%",
                  100.0 * static_cast<double>(hits) /
                      static_cast<double>(total));
    return buf;
}

} // namespace

ProgressReporter::ProgressReporter(const Config &config)
    : config_(config), start_(std::chrono::steady_clock::now())
{
    if (!config_.out)
        config_.out = stderr;
#if defined(__unix__) || defined(__APPLE__)
    tty_ = config_.out == stderr && ::isatty(fileno(stderr)) != 0;
#endif
    g_current.store(this, std::memory_order_release);
}

ProgressReporter::~ProgressReporter()
{
    // Only uninstall ourselves; a nested reporter (tests) may have
    // replaced us already.
    ProgressReporter *self = this;
    g_current.compare_exchange_strong(self, nullptr,
                                      std::memory_order_acq_rel);
}

ProgressReporter *
ProgressReporter::current()
{
    return g_current.load(std::memory_order_acquire);
}

double
ProgressReporter::elapsedSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

void
ProgressReporter::cellFinished(double durSeconds)
{
    done_.fetch_add(1, std::memory_order_relaxed);
    if (durSeconds > 0.0) {
        busyUs_.fetch_add(
            static_cast<std::uint64_t>(durSeconds * 1e6),
            std::memory_order_relaxed);
    }
    noteCellAt(elapsedSeconds());
    maybeReport();
}

void
ProgressReporter::noteCellAt(double elapsedSeconds)
{
    const auto idx = stamps_.fetch_add(1, std::memory_order_relaxed);
    stampUs_[idx % kRateWindow].store(
        static_cast<std::int64_t>(elapsedSeconds * 1e6),
        std::memory_order_relaxed);
}

double
ProgressReporter::windowRate(double elapsedSeconds) const
{
    const std::uint64_t recorded =
        stamps_.load(std::memory_order_relaxed);
    const std::uint64_t window =
        recorded < kRateWindow ? recorded : kRateWindow;
    if (window >= 2) {
        const std::int64_t newest =
            stampUs_[(recorded - 1) % kRateWindow].load(
                std::memory_order_relaxed);
        const std::int64_t oldest =
            stampUs_[(recorded - window) % kRateWindow].load(
                std::memory_order_relaxed);
        if (newest > oldest) {
            return static_cast<double>(window - 1) /
                   (static_cast<double>(newest - oldest) / 1e6);
        }
    }
    // Not enough samples (or all in the same microsecond): the
    // whole-run average is the best estimate we have.
    const std::size_t done = done_.load(std::memory_order_relaxed);
    return elapsedSeconds > 0.0
               ? static_cast<double>(done) / elapsedSeconds
               : 0.0;
}

void
ProgressReporter::noteFailure()
{
    failed_.fetch_add(1, std::memory_order_relaxed);
}

void
ProgressReporter::maybeReport()
{
    const double elapsed = elapsedSeconds();
    const auto nowUs = static_cast<std::int64_t>(elapsed * 1e6);
    std::int64_t last = lastReportUs_.load(std::memory_order_relaxed);
    const auto interval =
        static_cast<std::int64_t>(config_.intervalMs * 1e3);
    if (last >= 0 && nowUs - last < interval)
        return;
    // One thread wins the right to print this interval's line.
    if (!lastReportUs_.compare_exchange_strong(
            last, nowUs, std::memory_order_relaxed))
        return;
    std::string line = renderLine(elapsed);
    std::fprintf(config_.out, tty_ ? "\r%s\x1b[K" : "%s\n",
                 line.c_str());
    std::fflush(config_.out);
}

void
ProgressReporter::finish()
{
    std::string line = renderLine(elapsedSeconds());
    std::fprintf(config_.out, tty_ ? "\r%s\x1b[K\n" : "%s\n",
                 line.c_str());
    std::fflush(config_.out);
}

std::string
ProgressReporter::renderLine(double elapsedSeconds) const
{
    const std::size_t done = done_.load(std::memory_order_relaxed);
    const std::size_t failed = failed_.load(std::memory_order_relaxed);
    const double busy =
        static_cast<double>(busyUs_.load(std::memory_order_relaxed)) /
        1e6;

    // Rate over the trailing completion window, so a cold-cache (or
    // cache-hot) start stops skewing the ETA once a window of cells
    // has finished.
    const double rate = windowRate(elapsedSeconds);
    std::string eta = "-";
    if (config_.totalCells > done && rate > 0.0) {
        eta = renderDuration(
            static_cast<double>(config_.totalCells - done) / rate);
    } else if (config_.totalCells != 0 && done >= config_.totalCells) {
        eta = "0s";
    }
    // Worker utilization: busy worker-seconds over available
    // worker-seconds so far.
    const int jobs = config_.jobs > 0 ? config_.jobs : 1;
    double util = 0.0;
    if (elapsedSeconds > 0.0) {
        util = 100.0 * busy / (elapsedSeconds * jobs);
        if (util > 100.0)
            util = 100.0;
    }

    char head[128];
    std::snprintf(head, sizeof(head),
                  "[sweep] %zu/%zu cells  %.1f cells/s  eta %s",
                  done, config_.totalCells, rate, eta.c_str());
    std::string line = head;

    char tail[160];
    std::snprintf(tail, sizeof(tail), "  util %.0f%%", util);
    line += tail;

    if (config_.compileCache) {
        line += "  compile-cache ";
        line += renderPercent(config_.compileCache->hits(),
                              config_.compileCache->misses());
    }
    if (failed != 0) {
        char fbuf[48];
        std::snprintf(fbuf, sizeof(fbuf), "  failed %zu", failed);
        line += fbuf;
    }
    return line;
}

} // namespace ilp
