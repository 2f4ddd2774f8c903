/**
 * @file
 * Structured telemetry writers: the one Chrome tracing JSON writer
 * (flight-recorder spans plus an optional issue timeline), the
 * provenance block every document carries, and crash-safe file
 * writes.  Load --trace-events output in chrome://tracing or
 * https://ui.perfetto.dev.
 */

#ifndef SUPERSYM_CORE_STUDY_TELEMETRY_HH
#define SUPERSYM_CORE_STUDY_TELEMETRY_HH

#include <string>

#include "core/study/driver.hh"
#include "support/json.hh"
#include "support/trace.hh"

namespace ilp {

/** The provenance block every emitted document carries: build info
 *  plus the machine's name and specification hash. */
Json documentMeta(const MachineConfig &machine);

/**
 * Build a Chrome tracing document ({"traceEvents": [...]}) from a
 * flight-recorder session: pid 1 ("sweep", omitted when nothing was
 * recorded) holds one named tid per thread and a complete ("ph":"X")
 * event per span (compile phases, timing runs, cache waits, cells)
 * with the span's dynamic detail (cell index, workload, E-code) under
 * args.  `timeline`, when given, adds that run's issue timeline as
 * pid 2 ("issue"): one tid per issue slot and one event per issued
 * instruction, with one simulated minor cycle mapped to one
 * microsecond of trace time.
 */
Json buildSweepTraceEvents(const trace::Recording &recording,
                           const MachineConfig &machine,
                           const RunOutcome *timeline = nullptr);

/**
 * Write `text` to `path` (SS_FATAL on I/O failure).  Crash-safe: the
 * text lands in a sibling temp file first and is renamed into place,
 * so a reader (or a killed writer) never sees a partial file at
 * `path`.
 */
void writeTextFile(const std::string &path, const std::string &text);

/** writeTextFile() of a JSON document, two-space indented. */
void writeJsonFile(const std::string &path, const Json &doc);

} // namespace ilp

#endif // SUPERSYM_CORE_STUDY_TELEMETRY_HH
