#include "core/study/telemetry.hh"

#include <cstdio>
#include <fstream>

#include "support/buildinfo.hh"
#include "support/logging.hh"

namespace ilp {

namespace {

Json
completeEvent(const std::string &name, const std::string &cat,
              double ts_us, double dur_us, int pid, int tid)
{
    Json e = Json::object();
    e.set("name", Json(name));
    e.set("cat", Json(cat));
    e.set("ph", Json("X"));
    e.set("ts", Json(ts_us));
    e.set("dur", Json(dur_us));
    e.set("pid", Json(pid));
    e.set("tid", Json(tid));
    return e;
}

Json
metadataEvent(const std::string &name, int pid, int tid,
              const std::string &label)
{
    Json args = Json::object();
    args.set("name", Json(label));
    Json e = Json::object();
    e.set("name", Json(name));
    e.set("ph", Json("M"));
    e.set("pid", Json(pid));
    e.set("tid", Json(tid));
    e.set("args", std::move(args));
    return e;
}

} // namespace

Json
documentMeta(const MachineConfig &machine)
{
    Json meta = buildMeta();
    meta.set("machine", Json(machine.name));
    meta.set("machine_hash", Json(std::to_string(machine.specHash())));
    return meta;
}

Json
buildSweepTraceEvents(const trace::Recording &recording,
                      const MachineConfig &machine,
                      const RunOutcome *timeline)
{
    constexpr int kSweepPid = 1;
    constexpr int kIssuePid = 2;

    Json events = Json::array();
    if (!recording.tracks.empty())
        events.push(
            metadataEvent("process_name", kSweepPid, 0, "sweep"));
    for (const auto &[track, label] : recording.tracks) {
        events.push(metadataEvent("thread_name", kSweepPid,
                                  static_cast<int>(track), label));
    }
    for (const trace::Span &span : recording.spans) {
        Json e = completeEvent(span.name, span.cat, span.startUs,
                               span.durUs, kSweepPid,
                               static_cast<int>(span.track));
        if (!span.detail.empty()) {
            Json args = Json::object();
            args.set("detail", Json(span.detail));
            e.set("args", std::move(args));
        }
        events.push(std::move(e));
    }

    Json meta = documentMeta(machine);
    meta.set("spans",
             Json(static_cast<std::uint64_t>(recording.spans.size())));
    meta.set("workers",
             Json(static_cast<std::uint64_t>(recording.tracks.size())));
    if (timeline) {
        // Simulated time: one tid per issue slot, one minor cycle =
        // 1us of trace time, duration = operation latency.
        events.push(
            metadataEvent("process_name", kIssuePid, 0, "issue"));
        for (int slot = 0; slot < machine.issueWidth; ++slot) {
            events.push(metadataEvent("thread_name", kIssuePid, slot,
                                      "slot " + std::to_string(slot)));
        }
        for (const IssueEvent &ev : timeline->issueTimeline) {
            events.push(completeEvent(
                std::string(instrClassName(ev.cls)), "issue",
                static_cast<double>(ev.cycle),
                static_cast<double>(ev.latencyMinor), kIssuePid,
                ev.slot));
        }
        meta.set("issueWidth", Json(machine.issueWidth));
        meta.set("pipelineDegree", Json(machine.pipelineDegree));
        meta.set("timelineDropped", Json(timeline->timelineDropped));
    }

    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", Json("ms"));
    doc.set("otherData", std::move(meta));
    return doc;
}

void
writeTextFile(const std::string &path, const std::string &text)
{
    // Temp-and-rename: rename(2) is atomic within a filesystem, so
    // consumers polling `path` (dashboards, resume tooling, scrapers)
    // never observe a torn file, and a crash mid-write leaves the
    // old file intact.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            SS_FATAL("cannot open '", tmp, "' for writing");
        out << text;
        out.flush();
        if (!out)
            SS_FATAL("write to '", tmp, "' failed");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        SS_FATAL("cannot rename '", tmp, "' to '", path, "'");
}

void
writeJsonFile(const std::string &path, const Json &doc)
{
    writeTextFile(path, doc.dump(2) + "\n");
}

} // namespace ilp
