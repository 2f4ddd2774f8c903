/**
 * @file
 * Structured run telemetry writers: Chrome tracing JSON from compile
 * spans and the issue timeline, and helpers for landing a
 * StatsSnapshot on disk.  Load --trace-events output in
 * chrome://tracing or https://ui.perfetto.dev.
 */

#ifndef SUPERSYM_CORE_STUDY_TELEMETRY_HH
#define SUPERSYM_CORE_STUDY_TELEMETRY_HH

#include <cstdint>
#include <string>

#include "core/study/driver.hh"
#include "support/json.hh"
#include "support/trace.hh"

namespace ilp {

class Study;
struct HardeningTotals;

/**
 * Build a Chrome tracing document ({"traceEvents": [...]}) from one
 * run.  Compile spans become complete ("ph":"X") events on pid 1,
 * one tid per phase name; issue events become per-slot events on
 * pid 2, one tid per issue slot, with one simulated minor cycle
 * mapped to one microsecond of trace time.
 */
Json buildTraceEvents(const RunOutcome &outcome,
                      const MachineConfig &machine);

/**
 * Build a Chrome tracing document from a whole-sweep flight-recorder
 * session: one pid ("sweep"), one named tid per worker thread, and a
 * complete event per recorded span (compile phases, timing runs,
 * cache waits, cells) with the span's dynamic detail (cell index,
 * workload, E-code) under args.
 */
Json buildSweepTraceEvents(const trace::Recording &recording,
                           const MachineConfig &machine);

/**
 * Cross-check the process-global metrics registry against the
 * study's own cache counters and an expected cell count — the two
 * independent accounting paths over the same events (see
 * support/metrics.hh).  Call with a metrics registry that was reset
 * before the study ran.  @return empty when everything reconciles,
 * else a description of the first mismatch.
 */
std::string checkMetricsReconciliation(const Study &study,
                                       std::uint64_t expectedCells);

/**
 * The hardened-sweep variant: additionally reconciles the three
 * survivability counters (retries, timeouts, quarantined) against
 * the totals mapHardened accumulated in its own atomics.
 */
std::string checkMetricsReconciliation(const Study &study,
                                       std::uint64_t expectedCells,
                                       const HardeningTotals &totals);

/**
 * Write a JSON document to `path` (SS_FATAL on I/O failure).
 * Crash-safe: the document lands in a sibling temp file first and is
 * renamed into place, so a reader (or a killed writer) never sees a
 * partial document at `path`.
 */
void writeJsonFile(const std::string &path, const Json &doc);

} // namespace ilp

#endif // SUPERSYM_CORE_STUDY_TELEMETRY_HH
