#include "core/study/whatif.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "core/study/experiment.hh"
#include "sim/exec.hh"
#include "sim/trap.hh"
#include "support/buildinfo.hh"
#include "support/faultinject.hh"
#include "support/logging.hh"
#include "support/table.hh"

namespace ilp {

// -------------------------------------------- Study::dependenceGraph

namespace {

/** The dependence graph streamed out of a live run of `module`. */
DepGraph
dependenceGraphOf(const Module &module)
{
    if (fault::enabled())
        fault::maybeInject("depgraph");
    DepGraph::Builder builder;
    std::unique_ptr<Executor> exec = makeExecutor(module);
    RunResult r = exec->run("main", &builder);
    if (r.trapped())
        throw TrapException(r.trap);
    return builder.take();
}

} // namespace

DepGraph
Study::dependenceGraph(const Workload &workload,
                       const MachineConfig &machine,
                       const CompileOptions &options)
{
    return dependenceGraphOf(
        *cache_.compile(workload, machine, options, nullptr));
}

namespace whatif {

// ------------------------------------------------------------ report

Report
analyze(Study &study, const Workload &workload,
        const MachineConfig &machine, const CompileOptions &options,
        std::size_t topEdges)
{
    // One compile: the code map must come from the module the graph
    // was traced from.
    std::shared_ptr<const Module> module =
        study.compileCache().compile(workload, machine, options,
                                     nullptr);
    const DepGraph graph = dependenceGraphOf(*module);

    Report r;
    r.workload = workload.name;
    r.machineName = machine.name;
    r.machineHash = machine.specHash();
    r.issueWidth = machine.issueWidth;
    r.pipelineDegree = machine.pipelineDegree;
    r.analytic = graph.analyze(machine);
    r.slack = graph.slack(machine, topEdges);
    r.structureHash = graph.structureHash();
    r.graphNodes = graph.size();

    const prof::CodeMap code = prof::CodeMap::build(*module);
    auto attribute = [&](Pc pc, int &line, std::string &text) {
        if (pc != kNoPc && pc < code.entries.size()) {
            line = code.entries[pc].loc.line;
            text = code.entries[pc].text;
        }
    };
    for (const CriticalEdge &e : r.slack.topEdges) {
        EdgeRow row;
        row.edge = e;
        attribute(e.fromPc, row.fromLine, row.fromText);
        attribute(e.toPc, row.toLine, row.toText);
        r.edges.push_back(std::move(row));
    }
    return r;
}

std::string
render(const Report &r)
{
    const double m = static_cast<double>(r.pipelineDegree);
    std::ostringstream out;
    char buf[256];
    auto line = [&](const char *label, const std::string &value) {
        std::snprintf(buf, sizeof buf, "%-22s: %s\n", label,
                      value.c_str());
        out << buf;
    };
    auto num = [&](double v, int prec) {
        char b[64];
        std::snprintf(b, sizeof b, "%.*f", prec, v);
        return std::string(b);
    };

    out << "what-if: " << r.workload << " on " << r.machineName
        << "\n";
    {
        char b[96];
        std::snprintf(b, sizeof b, "%" PRIu64 " nodes, hash %016" PRIx64,
                      r.graphNodes, r.structureHash);
        line("dependence graph", b);
    }
    line("instructions",
         std::to_string(r.analytic.instructions));
    line("analytic cycles",
         num(r.analytic.baseCycles, 1) + " base (" +
             (r.analytic.certified ? "certified exact"
                                   : "lower bound") +
             ")");
    line("analytic ipc", num(r.analytic.ipc, 3));
    line("oracle critical path",
         num(static_cast<double>(r.analytic.criticalPathMinor) / m,
             1) +
             " base cycles");
    line("oracle ilp bound", num(r.analytic.oracleIlp, 3));
    line("issue-bandwidth bound",
         num(static_cast<double>(r.analytic.issueBoundMinor) / m, 1) +
             " base cycles");
    if (r.analytic.unitBoundMinor > 0)
        line("unit-conflict bound",
             num(static_cast<double>(r.analytic.unitBoundMinor) / m,
                 1) +
                 " base cycles");

    if (!r.edges.empty()) {
        out << "\ncritical-path dependence edges (top "
            << r.edges.size() << " by carried latency):\n";
        Table t("");
        t.setHeader({"from", "to", "kind", "count", "latency(base)"});
        for (const EdgeRow &e : r.edges) {
            auto where = [](int line, Pc pc) {
                if (line > 0)
                    return "line " + std::to_string(line);
                if (pc != kNoPc)
                    return "pc " + std::to_string(pc);
                return std::string("?");
            };
            t.row()
                .cell(where(e.fromLine, e.edge.fromPc))
                .cell(where(e.toLine, e.edge.toPc))
                .cell(e.edge.memory ? "memory" : "register")
                .cell(static_cast<long long>(e.edge.count))
                .cell(static_cast<double>(e.edge.latencyMinor) / m,
                      1);
        }
        out << t.render();
    }
    return out.str();
}

Json
toJson(const Report &r)
{
    Json meta = buildMeta();
    meta.set("machine", r.machineName);
    meta.set("machine_hash", std::to_string(r.machineHash));

    Json analytic = Json::object();
    analytic.set("minor_cycles",
                 static_cast<double>(r.analytic.minorCycles));
    analytic.set("base_cycles", r.analytic.baseCycles);
    analytic.set("ipc", r.analytic.ipc);
    analytic.set("certified", r.analytic.certified);
    analytic.set("critical_path_minor",
                 static_cast<double>(r.analytic.criticalPathMinor));
    analytic.set("oracle_ilp", r.analytic.oracleIlp);
    analytic.set("issue_bound_minor",
                 static_cast<double>(r.analytic.issueBoundMinor));
    analytic.set("unit_bound_minor",
                 static_cast<double>(r.analytic.unitBoundMinor));

    Json edges = Json::array();
    for (const EdgeRow &e : r.edges) {
        Json row = Json::object();
        row.set("from_pc", e.edge.fromPc == kNoPc
                               ? Json()
                               : Json(static_cast<double>(
                                     e.edge.fromPc)));
        row.set("to_pc", e.edge.toPc == kNoPc
                             ? Json()
                             : Json(static_cast<double>(e.edge.toPc)));
        row.set("from_line", static_cast<double>(e.fromLine));
        row.set("to_line", static_cast<double>(e.toLine));
        row.set("kind",
                Json(std::string(e.edge.memory ? "memory"
                                               : "register")));
        row.set("count", static_cast<double>(e.edge.count));
        row.set("latency_minor",
                static_cast<double>(e.edge.latencyMinor));
        edges.push(std::move(row));
    }

    Json graph = Json::object();
    graph.set("nodes", static_cast<double>(r.graphNodes));
    graph.set("structure_hash", std::to_string(r.structureHash));

    Json doc = Json::object();
    doc.set("schema", Json(std::string("whatif-v1")));
    doc.set("meta", std::move(meta));
    doc.set("workload", Json(r.workload));
    doc.set("machine", Json(r.machineName));
    doc.set("instructions",
            static_cast<double>(r.analytic.instructions));
    doc.set("analytic", std::move(analytic));
    doc.set("critical_edges", std::move(edges));
    doc.set("graph", std::move(graph));
    return doc;
}

// ------------------------------------------------------ slack listing

std::string
renderSlackListing(const prof::Profile &profile,
                   const SlackReport &slack,
                   const std::string &source, std::size_t topN)
{
    const double m = static_cast<double>(profile.pipelineDegree);

    // Join the graph's per-pc slack rollup with the code map's line
    // attribution (rows beyond the code map — the unattributed
    // bucket — fold into line 0, which is never printed).
    struct LineSlack
    {
        std::uint64_t dynCount = 0;
        std::uint64_t critCount = 0;
        std::uint64_t critLatencyMinor = 0;
        std::uint64_t minSlackMinor =
            std::numeric_limits<std::uint64_t>::max();
    };
    std::map<int, LineSlack> byLine;
    for (std::size_t pc = 0; pc + 1 < slack.perPc.size(); ++pc) {
        const PcSlack &ps = slack.perPc[pc];
        if (ps.dynCount == 0)
            continue;
        const int line =
            pc < profile.code.entries.size()
                ? profile.code.entries[pc].loc.line
                : 0;
        LineSlack &ls = byLine[line];
        ls.dynCount += ps.dynCount;
        ls.critCount += ps.critCount;
        ls.critLatencyMinor += ps.critLatencyMinor;
        ls.minSlackMinor =
            std::min(ls.minSlackMinor, ps.minSlackMinor);
    }

    // Source text per line, for the listing column.
    std::vector<std::string> lines;
    {
        std::istringstream in(source);
        std::string l;
        while (std::getline(in, l))
            lines.push_back(l);
    }
    auto sourceText = [&](int line) -> std::string {
        if (line <= 0 ||
            static_cast<std::size_t>(line) > lines.size())
            return "";
        std::string t = lines[static_cast<std::size_t>(line) - 1];
        const std::size_t start = t.find_first_not_of(" \t");
        return start == std::string::npos ? "" : t.substr(start);
    };

    std::ostringstream out;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "slack analysis: %s on %s\n"
                  "oracle critical path : %.1f base cycles "
                  "(%.3fx oracle ilp over %llu instructions)\n\n",
                  profile.workload.c_str(),
                  profile.machineName.c_str(),
                  static_cast<double>(slack.criticalPathMinor) / m,
                  slack.criticalPathMinor > 0
                      ? static_cast<double>(profile.instructions) *
                            m /
                            static_cast<double>(
                                slack.criticalPathMinor)
                      : 0.0,
                  static_cast<unsigned long long>(
                      profile.instructions));
    out << buf;

    // Hottest lines by critical-path contribution: the "would speed
    // up if" list — shaving latency off these lines shortens the
    // oracle critical path itself.
    std::vector<std::pair<int, LineSlack>> rows(byLine.begin(),
                                                byLine.end());
    rows.erase(std::remove_if(rows.begin(), rows.end(),
                              [](const auto &r) {
                                  return r.first <= 0;
                              }),
               rows.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.critLatencyMinor !=
                      b.second.critLatencyMinor)
                      return a.second.critLatencyMinor >
                             b.second.critLatencyMinor;
                  return a.first < b.first;
              });
    if (rows.size() > topN)
        rows.resize(topN);

    Table t("would speed up if (top lines on the critical path):");
    t.setHeader({"line", "dyn", "critical", "crit-lat(base)",
                 "min-slack(base)", "source"});
    for (const auto &[line, ls] : rows) {
        t.row()
            .cell(static_cast<long long>(line))
            .cell(static_cast<long long>(ls.dynCount))
            .cell(static_cast<long long>(ls.critCount))
            .cell(static_cast<double>(ls.critLatencyMinor) / m, 1)
            .cell(static_cast<double>(ls.minSlackMinor) / m, 1)
            .cell(sourceText(line));
    }
    out << t.render();
    out << "\nlines with zero min-slack sit on the oracle critical "
           "path: only shortening them (or breaking the dependence) "
           "can speed the program up;\nlines with slack can slow "
           "down by that much before they matter.\n";
    return out.str();
}

} // namespace whatif
} // namespace ilp
