#include "support/report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "support/buildinfo.hh"

namespace ilp::report {

namespace {

std::string
esc(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '&':
            out += "&amp;";
            break;
        case '<':
            out += "&lt;";
            break;
        case '>':
            out += "&gt;";
            break;
        case '"':
            out += "&quot;";
            break;
        default:
            out += c;
        }
    }
    return out;
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

std::string
fmtFixed(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

/** "Nice" tick step covering range/count (1, 2, 5 x 10^k). */
double
niceStep(double range, int count)
{
    if (range <= 0.0 || count <= 0)
        return 1.0;
    const double raw = range / count;
    const double mag = std::pow(10.0, std::floor(std::log10(raw)));
    const double norm = raw / mag;
    double step = 10.0;
    if (norm <= 1.0)
        step = 1.0;
    else if (norm <= 2.0)
        step = 2.0;
    else if (norm <= 5.0)
        step = 5.0;
    return step * mag;
}

// ------------------------------------------------- bench trend chart

/**
 * One label's trajectory as an inline SVG: value polyline over point
 * index, bootstrap-CI band where points carry one, native <title>
 * tooltips per point.  Single series, so the chart needs no legend —
 * the figure caption names it.
 */
std::string
trendSvg(const std::vector<const bench::Point *> &pts)
{
    const double w = 600.0;
    const double h = 170.0;
    const double left = 64.0;
    const double right = 10.0;
    const double top = 10.0;
    const double bottom = 24.0;
    const double pw = w - left - right;
    const double ph = h - top - bottom;
    const std::size_t n = pts.size();

    double lo = 0.0;
    double hi = 0.0;
    bool first = true;
    for (const bench::Point *p : pts) {
        double plo = p->value;
        double phi = p->value;
        if (p->summary.isObject()) {
            if (const Json *v = p->summary.find("ci_lo"))
                if (v->isNumber())
                    plo = std::min(plo, v->asNumber());
            if (const Json *v = p->summary.find("ci_hi"))
                if (v->isNumber())
                    phi = std::max(phi, v->asNumber());
        }
        lo = first ? plo : std::min(lo, plo);
        hi = first ? phi : std::max(hi, phi);
        first = false;
    }
    if (hi <= lo) {
        const double pad = lo == 0.0 ? 1.0 : std::fabs(lo) * 0.05;
        lo -= pad;
        hi += pad;
    } else {
        const double pad = (hi - lo) * 0.08;
        lo -= pad;
        hi += pad;
    }

    auto x = [&](std::size_t i) {
        return n <= 1 ? left + pw / 2.0
                      : left + pw * static_cast<double>(i) /
                            static_cast<double>(n - 1);
    };
    auto y = [&](double v) {
        return top + ph * (1.0 - (v - lo) / (hi - lo));
    };

    std::string svg;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "<svg viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" "
                  "height=\"%.0f\" role=\"img\">",
                  w, h, w, h);
    svg += buf;

    // Recessive grid + y tick labels on nice steps.
    const double step = niceStep(hi - lo, 4);
    for (double tick = std::ceil(lo / step) * step; tick <= hi;
         tick += step) {
        std::snprintf(buf, sizeof(buf),
                      "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" "
                      "y2=\"%.1f\" class=\"grid\"/>"
                      "<text x=\"%.1f\" y=\"%.1f\" class=\"tick\" "
                      "text-anchor=\"end\">%s</text>",
                      left, y(tick), w - right, y(tick), left - 6.0,
                      y(tick) + 3.5, fmt(tick).c_str());
        svg += buf;
    }
    // x tick labels: point indices, thinned to ~6.
    const std::size_t every = n > 6 ? (n + 5) / 6 : 1;
    for (std::size_t i = 0; i < n; i += every) {
        std::snprintf(buf, sizeof(buf),
                      "<text x=\"%.1f\" y=\"%.1f\" class=\"tick\" "
                      "text-anchor=\"middle\">%zu</text>",
                      x(i), h - 8.0, i);
        svg += buf;
    }

    // Bootstrap CI band (where any point carries a summary).
    std::string band_up;
    std::string band_down;
    bool has_band = false;
    for (std::size_t i = 0; i < n; ++i) {
        double plo = pts[i]->value;
        double phi = pts[i]->value;
        if (pts[i]->summary.isObject()) {
            if (const Json *v = pts[i]->summary.find("ci_lo"))
                if (v->isNumber())
                    plo = v->asNumber();
            if (const Json *v = pts[i]->summary.find("ci_hi"))
                if (v->isNumber())
                    phi = v->asNumber();
            if (phi > plo)
                has_band = true;
        }
        std::snprintf(buf, sizeof(buf), "%.1f,%.1f ", x(i), y(phi));
        band_up += buf;
        std::snprintf(buf, sizeof(buf), "%.1f,%.1f ", x(i), y(plo));
        band_down = buf + band_down;
    }
    if (has_band && n > 1) {
        svg += "<polygon class=\"band\" points=\"" + band_up +
               band_down + "\"/>";
    }

    // The trend line and per-point markers with native tooltips.
    std::string line_points;
    for (std::size_t i = 0; i < n; ++i) {
        std::snprintf(buf, sizeof(buf), "%.1f,%.1f ", x(i),
                      y(pts[i]->value));
        line_points += buf;
    }
    if (n > 1)
        svg += "<polyline class=\"line\" points=\"" + line_points +
               "\"/>";
    for (std::size_t i = 0; i < n; ++i) {
        std::string tip = "#" + std::to_string(i) + ": " +
                          fmt(pts[i]->value) + " " + pts[i]->unit;
        if (pts[i]->meta.isObject()) {
            if (const Json *v = pts[i]->meta.find("version"))
                if (v->isString())
                    tip += " @ " + v->asString();
            if (const Json *v = pts[i]->meta.find("timestamp_utc"))
                if (v->isString())
                    tip += " (" + v->asString() + ")";
        }
        std::snprintf(buf, sizeof(buf),
                      "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"%s\" "
                      "class=\"pt\"><title>%s</title></circle>",
                      x(i), y(pts[i]->value),
                      i + 1 == n ? "4.5" : "3", esc(tip).c_str());
        svg += buf;
    }
    svg += "</svg>";
    return svg;
}

/** Horizontal bar list (single measure over categories: one hue). */
std::string
barList(const std::vector<std::pair<std::string, double>> &items,
        bool asPercent)
{
    double max = 0.0;
    for (const auto &[label, v] : items)
        max = std::max(max, v);
    std::string html = "<div class=\"bars\">";
    for (const auto &[label, v] : items) {
        const double frac = max > 0.0 ? v / max : 0.0;
        html += "<div class=\"bar-row\"><span class=\"bar-label\">" +
                esc(label) + "</span><span class=\"bar-track\">" +
                "<span class=\"bar-fill\" style=\"width:" +
                fmtFixed(frac * 100.0, 2) + "%\"></span></span>" +
                "<span class=\"bar-value\">" +
                (asPercent ? fmtFixed(v * 100.0, 1) + "%" : fmt(v)) +
                "</span></div>";
    }
    html += "</div>";
    return html;
}

std::string
verdictChip(bench::Verdict v)
{
    const char *cls = "chip-neutral";
    switch (v) {
    case bench::Verdict::Ok:
        cls = "chip-good";
        break;
    case bench::Verdict::Regressed:
        cls = "chip-critical";
        break;
    case bench::Verdict::Improved:
        cls = "chip-good";
        break;
    case bench::Verdict::Insufficient:
        cls = "chip-neutral";
        break;
    }
    return std::string("<span class=\"chip ") + cls + "\">" +
           bench::verdictName(v) + "</span>";
}

// ------------------------------------------------------ section html

std::string
benchSection(const ReportInputs &in)
{
    const bench::Trajectory &traj = *in.bench;

    // Group points by label, first-appearance order.
    std::vector<
        std::pair<std::string, std::vector<const bench::Point *>>>
        groups;
    for (const bench::Point &p : traj.points) {
        bool found = false;
        for (auto &[label, pts] : groups) {
            if (label == p.label) {
                pts.push_back(&p);
                found = true;
                break;
            }
        }
        if (!found)
            groups.push_back({p.label, {&p}});
    }
    if (groups.empty())
        return "";

    std::string html = "<section><h2>Bench trajectory</h2>";

    const std::vector<bench::LabelVerdict> verdicts =
        bench::sentinelCheck(traj, in.sentinel);
    if (!verdicts.empty()) {
        char caption[160];
        std::snprintf(caption, sizeof(caption),
                      "Sentinel: newest point vs rolling baseline "
                      "(window %zu, threshold %.1f%%, alpha %.2f)",
                      in.sentinel.window,
                      in.sentinel.threshold * 100.0,
                      in.sentinel.alpha);
        html += std::string("<p class=\"note\">") + caption + "</p>";
        html += "<table><thead><tr><th>label</th><th>unit</th>"
                "<th class=\"num\">baseline</th>"
                "<th class=\"num\">latest</th>"
                "<th class=\"num\">worse</th>"
                "<th class=\"num\">p (MWU)</th>"
                "<th class=\"num\">pts</th><th>verdict</th></tr>"
                "</thead><tbody>";
        for (const bench::LabelVerdict &v : verdicts) {
            html += "<tr><td>" + esc(v.label) + "</td><td>" +
                    esc(v.unit.empty() ? "-" : v.unit) + "</td>";
            if (v.verdict == bench::Verdict::Insufficient) {
                html += "<td class=\"num\">-</td><td class=\"num\">" +
                        fmt(v.latestMedian) +
                        "</td><td class=\"num\">-</td>"
                        "<td class=\"num\">-</td>";
            } else {
                html += "<td class=\"num\">" + fmt(v.baselineMedian) +
                        "</td><td class=\"num\">" +
                        fmt(v.latestMedian) +
                        "</td><td class=\"num\">" +
                        fmtFixed(v.worsePct * 100.0, 2) +
                        "%</td><td class=\"num\">" +
                        (v.tested ? fmtFixed(v.p, 4)
                                  : std::string("-")) +
                        "</td>";
            }
            html += "<td class=\"num\">" +
                    std::to_string(v.baselinePoints) + "</td><td>" +
                    verdictChip(v.verdict) +
                    (v.note.empty() ? ""
                                    : " <span class=\"note\">" +
                                          esc(v.note) + "</span>") +
                    "</td></tr>";
        }
        html += "</tbody></table>";
    }

    html += "<div class=\"grid\">";
    for (const auto &[label, pts] : groups) {
        html += "<figure><figcaption>" + esc(label) +
                " <span class=\"note\">(" +
                esc(pts.back()->unit.empty() ? "value"
                                             : pts.back()->unit) +
                ", " + std::to_string(pts.size()) +
                " points)</span></figcaption>";
        html += trendSvg(pts);
        // The table view of the same data (accessibility fallback).
        html += "<details><summary>data</summary><table><thead><tr>"
                "<th class=\"num\">#</th><th class=\"num\">median</th>"
                "<th class=\"num\">ci lo</th><th class=\"num\">ci hi"
                "</th><th class=\"num\">n</th><th>version</th>"
                "<th>timestamp (UTC)</th></tr></thead><tbody>";
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const bench::Point &p = *pts[i];
            std::string ci_lo = "-";
            std::string ci_hi = "-";
            std::string reps = std::to_string(p.samples.size());
            if (p.summary.isObject()) {
                if (const Json *v = p.summary.find("ci_lo"))
                    if (v->isNumber())
                        ci_lo = fmt(v->asNumber());
                if (const Json *v = p.summary.find("ci_hi"))
                    if (v->isNumber())
                        ci_hi = fmt(v->asNumber());
            }
            std::string version = "-";
            std::string stamp = "-";
            if (p.meta.isObject()) {
                if (const Json *v = p.meta.find("version"))
                    if (v->isString())
                        version = v->asString();
                if (const Json *v = p.meta.find("timestamp_utc"))
                    if (v->isString())
                        stamp = v->asString();
            }
            html += "<tr><td class=\"num\">" + std::to_string(i) +
                    "</td><td class=\"num\">" + fmt(p.value) +
                    "</td><td class=\"num\">" + ci_lo +
                    "</td><td class=\"num\">" + ci_hi +
                    "</td><td class=\"num\">" + reps + "</td><td>" +
                    esc(version) + "</td><td>" + esc(stamp) +
                    "</td></tr>";
        }
        html += "</tbody></table></details></figure>";
    }
    html += "</div></section>";
    return html;
}

/** Stall-breakdown + dynamic-mix charts for one stats tree. */
std::string
statsCharts(const std::string &name, const Json &stats)
{
    std::string html;
    std::vector<std::pair<std::string, double>> stalls;
    if (const Json *node = stats.at("issue.stall")) {
        if (node->isObject())
            for (const auto &[cause, v] : node->asObject())
                if (v.isNumber())
                    stalls.push_back({cause, v.asNumber()});
    }
    std::vector<std::pair<std::string, double>> mix;
    if (const Json *node = stats.at("mix.fractions")) {
        if (node->isObject())
            for (const auto &[cls, v] : node->asObject())
                if (v.isNumber() && v.asNumber() > 0.0)
                    mix.push_back({cls, v.asNumber()});
    }
    if (stalls.empty() && mix.empty())
        return html;
    html += "<figure><figcaption>" + esc(name) + "</figcaption>";
    if (!stalls.empty()) {
        html += "<h4>stall slots by cause</h4>";
        html += barList(stalls, false);
    }
    if (!mix.empty()) {
        html += "<h4>dynamic instruction mix</h4>";
        html += barList(mix, true);
    }
    html += "</figure>";
    return html;
}

std::string
statsSection(const Json &doc)
{
    std::string body;
    if (const Json *benchmarks = doc.find("benchmarks")) {
        // Suite-shaped: one chart pair per benchmark.
        if (benchmarks->isArray()) {
            for (const Json &entry : benchmarks->asArray()) {
                const Json *name = entry.find("name");
                const Json *stats = entry.find("stats");
                if (name && name->isString() && stats)
                    body += statsCharts(name->asString(), *stats);
            }
        }
    } else if (const Json *stats = doc.find("stats")) {
        const Json *program = doc.find("program");
        body += statsCharts(program && program->isString()
                                ? program->asString()
                                : "run",
                            *stats);
    }
    if (body.empty())
        return "";
    return "<section><h2>Stall breakdown &amp; dynamic mix</h2>"
           "<div class=\"grid\">" +
           body + "</div></section>";
}

std::string
metricsSection(const Json &doc)
{
    const Json *metrics = doc.find("metrics");
    if (!metrics || !metrics->isObject())
        return "";
    std::string rows;
    std::vector<std::pair<std::string, double>> p99bars;
    for (const auto &[name, entry] : metrics->asObject()) {
        const Json *type = entry.find("type");
        const Json *value = entry.find("value");
        if (!type || !type->isString() || !value)
            continue;
        if (type->asString() != "summary" || !value->isObject())
            continue;
        auto num = [&](const char *key) {
            const Json *v = value->find(key);
            return (v && v->isNumber()) ? v->asNumber() : 0.0;
        };
        rows += "<tr><td>" + esc(name) + "</td><td class=\"num\">" +
                fmt(num("count")) + "</td><td class=\"num\">" +
                fmt(num("sum")) + "</td><td class=\"num\">" +
                fmt(num("p50")) + "</td><td class=\"num\">" +
                fmt(num("p90")) + "</td><td class=\"num\">" +
                fmt(num("p99")) + "</td></tr>";
        p99bars.push_back({name, num("p99")});
    }
    if (rows.empty())
        return "";
    std::string html =
        "<section><h2>Runtime metrics: duration histograms</h2>"
        "<table><thead><tr><th>histogram</th>"
        "<th class=\"num\">count</th><th class=\"num\">sum</th>"
        "<th class=\"num\">p50</th><th class=\"num\">p90</th>"
        "<th class=\"num\">p99</th></tr></thead><tbody>" +
        rows + "</tbody></table>";
    html += "<h4>p99 (seconds)</h4>";
    html += barList(p99bars, false);
    html += "</section>";
    return html;
}

std::string
profileSection(const Json &doc, std::size_t top)
{
    const Json *lines = doc.find("lines");
    if (!lines || !lines->isArray())
        return "";

    struct Line
    {
        std::uint64_t line = 0;
        double issued = 0.0;
        double stalls = 0.0;
        double slots = 0.0;
        std::string dominant;
    };
    std::vector<Line> rows;
    double slot_total = 0.0;
    for (const Json &entry : lines->asArray()) {
        Line l;
        if (const Json *v = entry.find("line"))
            if (v->isNumber())
                l.line = static_cast<std::uint64_t>(v->asNumber());
        if (const Json *v = entry.find("issued"))
            if (v->isNumber())
                l.issued = v->asNumber();
        if (const Json *v = entry.find("slot_total"))
            if (v->isNumber())
                l.slots = v->asNumber();
        if (const Json *stalls = entry.find("stall_slots")) {
            if (stalls->isObject()) {
                double best = 0.0;
                for (const auto &[cause, v] : stalls->asObject()) {
                    if (!v.isNumber())
                        continue;
                    l.stalls += v.asNumber();
                    if (v.asNumber() > best) {
                        best = v.asNumber();
                        l.dominant = cause;
                    }
                }
            }
        }
        slot_total += l.slots;
        rows.push_back(std::move(l));
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Line &a, const Line &b) {
                         return a.slots > b.slots;
                     });
    if (rows.size() > top)
        rows.resize(top);

    std::string name = "profile";
    if (const Json *meta = doc.find("meta")) {
        if (const Json *w = meta->find("workload"))
            if (w->isString())
                name = w->asString();
        if (const Json *m = meta->find("machine"))
            if (m->isString())
                name += " on " + m->asString();
    }
    std::string html = "<section><h2>Profiler: hottest lines</h2>"
                       "<p class=\"note\">" +
                       esc(name) + "</p>"
                       "<table><thead><tr><th class=\"num\">line</th>"
                       "<th class=\"num\">issued</th>"
                       "<th class=\"num\">stall slots</th>"
                       "<th class=\"num\">% of slots</th>"
                       "<th>dominant cause</th></tr></thead><tbody>";
    for (const Line &l : rows) {
        html += "<tr><td class=\"num\">" + std::to_string(l.line) +
                "</td><td class=\"num\">" + fmt(l.issued) +
                "</td><td class=\"num\">" + fmt(l.stalls) +
                "</td><td class=\"num\">" +
                fmtFixed(slot_total > 0.0
                             ? 100.0 * l.slots / slot_total
                             : 0.0,
                         1) +
                "%</td><td>" +
                esc(l.stalls > 0.0 ? l.dominant : "-") +
                "</td></tr>";
    }
    html += "</tbody></table></section>";
    return html;
}

/** Palette: the validated reference palette from the data-viz
 *  method — single-series blue, status colors never reused as
 *  series, light and dark both selected (not auto-flipped). */
const char *kStyle = R"(
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px 32px; font: 14px/1.5 system-ui, sans-serif;
  background: var(--surface-1); color: var(--text-primary);
  --surface-1: #fcfcfb; --surface-2: #f0efec;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --grid: #e3e2de; --series-1: #2a78d6; --band: rgba(42,120,214,.16);
  --good: #0ca30c; --critical: #d03b3b; --neutral: #52514e;
}
@media (prefers-color-scheme: dark) {
  body {
    --surface-1: #1a1a19; --surface-2: #383835;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --grid: #33332f; --series-1: #3987e5;
    --band: rgba(57,135,229,.22);
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; }
h4 { font-size: 12px; margin: 10px 0 4px; color: var(--text-secondary);
     font-weight: 600; }
.meta, .note { color: var(--text-secondary); font-size: 12px; }
section { margin-bottom: 8px; }
.grid { display: flex; flex-wrap: wrap; gap: 18px; }
figure { margin: 0; padding: 12px; background: var(--surface-1);
         border: 1px solid var(--grid); border-radius: 8px; }
figcaption { font-weight: 600; margin-bottom: 6px; }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .tick { fill: var(--text-secondary); font-size: 10px; }
svg .line { fill: none; stroke: var(--series-1); stroke-width: 2;
            stroke-linejoin: round; }
svg .band { fill: var(--band); stroke: none; }
svg .pt { fill: var(--series-1); stroke: var(--surface-1);
          stroke-width: 2; }
table { border-collapse: collapse; margin: 8px 0; font-size: 13px; }
th, td { padding: 3px 10px; text-align: left;
         border-bottom: 1px solid var(--grid); }
th { color: var(--text-secondary); font-weight: 600; }
th.num, td.num { text-align: right;
                 font-variant-numeric: tabular-nums; }
.chip { font-weight: 600; }
.chip::before { content: "\25CF\00A0"; }
.chip-good { color: var(--good); }
.chip-critical { color: var(--critical); }
.chip-neutral { color: var(--neutral); }
.bars { display: grid; gap: 3px; min-width: 420px; }
.bar-row { display: grid;
           grid-template-columns: 110px 1fr 70px; gap: 8px;
           align-items: center; }
.bar-label { color: var(--text-secondary); font-size: 12px;
             text-align: right; }
.bar-track { background: var(--surface-2); border-radius: 4px;
             height: 14px; display: block; }
.bar-fill { background: var(--series-1); border-radius: 4px;
            height: 14px; display: block; }
.bar-value { font-size: 12px; font-variant-numeric: tabular-nums; }
details summary { cursor: pointer; color: var(--text-secondary);
                  font-size: 12px; }
)";

} // namespace

std::string
renderHtml(const ReportInputs &inputs)
{
    std::string html = "<!doctype html>\n<html lang=\"en\">\n<head>\n"
                       "<meta charset=\"utf-8\">\n"
                       "<meta name=\"viewport\" content=\"width="
                       "device-width, initial-scale=1\">\n<title>" +
                       esc(inputs.title) + "</title>\n<style>" +
                       kStyle + "</style>\n</head>\n<body>\n";
    html += "<header><h1>" + esc(inputs.title) + "</h1>";
    html += "<div class=\"meta\">generated by supersym " +
            esc(buildVersion()) + " (" + esc(buildType()) +
            ")</div></header>\n";

    bool any = false;
    if (inputs.bench) {
        const std::string s = benchSection(inputs);
        any = any || !s.empty();
        html += s;
    }
    if (inputs.stats) {
        const std::string s = statsSection(*inputs.stats);
        any = any || !s.empty();
        html += s;
    }
    if (inputs.metrics) {
        const std::string s = metricsSection(*inputs.metrics);
        any = any || !s.empty();
        html += s;
    }
    if (inputs.profile) {
        const std::string s =
            profileSection(*inputs.profile, inputs.profileTop);
        any = any || !s.empty();
        html += s;
    }
    if (!any)
        html += "<p class=\"note\">no renderable artifacts were "
                "provided — pass --bench, --stats-in, --metrics, or "
                "--profile-in.</p>";
    html += "</body>\n</html>\n";
    return html;
}

} // namespace ilp::report
