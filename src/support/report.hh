/**
 * @file
 * `ssim report` — a zero-dependency, self-contained HTML dashboard
 * over the observability artifacts the toolchain already writes:
 *
 *   - the bench-v2 perf trajectory (per-label trend lines with the
 *     bootstrap CI band, plus the regression sentinel's verdicts),
 *   - stall breakdown and dynamic instruction mix from a --stats-json
 *     document (run- or suite-shaped),
 *   - host time by span name (count, total and self time,
 *     p50/p90/p99) from a --trace-events document,
 *   - the profiler's hottest source lines from a profile-v1 document.
 *
 * The output is ONE file: inline CSS and SVG, no script, no external
 * fetches — open it from a CI artifact listing and it just renders.
 * Every section is optional; absent inputs are skipped.  Rendering is
 * deterministic for identical inputs (no wall-clock reads), so CI can
 * byte-compare reports across reruns.
 */

#ifndef SUPERSYM_SUPPORT_REPORT_HH
#define SUPERSYM_SUPPORT_REPORT_HH

#include <string>

#include "support/bench.hh"
#include "support/json.hh"

namespace ilp::report {

struct ReportInputs
{
    /** Loaded bench trajectory; nullptr to skip the perf section. */
    const bench::Trajectory *bench = nullptr;
    /** Sentinel configuration for the verdict table. */
    bench::SentinelConfig sentinel;
    /** --stats-json document (run or suite shape); nullptr to skip. */
    const Json *stats = nullptr;
    /** --trace-events document; nullptr to skip. */
    const Json *trace = nullptr;
    /** profile-v1 document; nullptr to skip. */
    const Json *profile = nullptr;
    /** Hot lines shown from the profile. */
    std::size_t profileTop = 10;
    std::string title = "supersym perf report";
};

/** Render the dashboard as a complete HTML document. */
std::string renderHtml(const ReportInputs &inputs);

} // namespace ilp::report

#endif // SUPERSYM_SUPPORT_REPORT_HH
