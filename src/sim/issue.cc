#include "sim/issue.hh"

#include <algorithm>

#include "support/logging.hh"

namespace ilp {

const char *
stallCauseName(StallCause cause)
{
    switch (cause) {
      case StallCause::RawLatency: return "raw_latency";
      case StallCause::UnitConflict: return "unit_conflict";
      case StallCause::BranchFence: return "branch_fence";
      case StallCause::FrontendDrain: return "frontend_drain";
    }
    SS_PANIC("bad StallCause ", static_cast<int>(cause));
}

std::uint64_t
StallBreakdown::total() const
{
    std::uint64_t t = 0;
    for (std::uint64_t s : slots)
        t += s;
    return t;
}

IssueEngine::IssueEngine(const MachineConfig &config)
    : config_(config)
{
    config_.validate();
    width_ = static_cast<std::uint64_t>(config_.issueWidth);

    // Each unit's copies get a contiguous range of unit_free_.
    std::vector<std::uint16_t> unit_begin;
    for (const FuncUnit &u : config_.units) {
        unit_begin.push_back(static_cast<std::uint16_t>(unit_free_.size()));
        unit_free_.resize(unit_free_.size() +
                              static_cast<std::size_t>(u.multiplicity),
                          0);
    }
    SS_ASSERT(unit_free_.size() <= 0xffff, "too many unit copies in ",
              config_.name);

    for (std::size_t op = 0; op < kNumOpcodes; ++op) {
        const Opcode opcode = static_cast<Opcode>(op);
        const InstrClass cls = opcodeClass(opcode);
        IssueRow &row = rows_[op];
        row.cls = cls;
        row.latency = static_cast<std::uint32_t>(config_.latencyMinor(cls));
        row.store = isStore(opcode);
        row.fence = !config_.issueAcrossBranches &&
                    (cls == InstrClass::Branch || cls == InstrClass::Jump);
        const int unit = config_.unitFor(cls);
        if (unit >= 0) {
            const FuncUnit &u = config_.units[static_cast<std::size_t>(unit)];
            row.unitBegin = unit_begin[static_cast<std::size_t>(unit)];
            row.unitEnd = static_cast<std::uint16_t>(
                row.unitBegin + u.multiplicity);
            row.unitIssueLatency =
                static_cast<std::uint32_t>(u.issueLatency);
        }
    }
    counts_.assign(width_ + 1, 0);
    SS_DEBUG("issue", "engine for ", config_.name, ": width ",
             config_.issueWidth, ", degree ", config_.pipelineDegree);
}

void
IssueEngine::growRegReady(Reg r)
{
    reg_ready_.resize(static_cast<std::size_t>(r) + 1, 0);
}

void
IssueEngine::growStoreReady(std::size_t word)
{
    store_ready_.resize(word + 1, 0);
}

void
IssueEngine::observe(Opcode op, Pc pc, StallCause cause,
                     std::uint64_t lost)
{
    if (timeline_enabled_) {
        if (timeline_.size() < timeline_limit_) {
            const IssueRow &row = rows_[static_cast<std::size_t>(op)];
            IssueEvent ev;
            ev.cycle = cur_cycle_;
            ev.slot = static_cast<std::uint16_t>(cur_count_ - 1);
            ev.latencyMinor = row.latency;
            ev.cls = row.cls;
            timeline_.push_back(ev);
        } else {
            ++timeline_dropped_;
        }
    }
    if (profile_enabled_) {
        // Last slot = records with no pc (unattributed).
        const std::size_t p = pc < profile_.size() - 1
                                  ? static_cast<std::size_t>(pc)
                                  : profile_.size() - 1;
        profile_[p].stallSlots[static_cast<std::size_t>(cause)] += lost;
        ++profile_[p].issued;
        last_profile_slot_ = p;
    }
}

std::uint64_t
IssueEngine::minorCycles() const
{
    return last_complete_;
}

std::uint64_t
IssueEngine::instructions() const
{
    std::uint64_t n = 0;
    for (std::uint64_t c : class_issued_)
        n += c;
    return n;
}

std::vector<std::uint64_t>
IssueEngine::issueCounts() const
{
    std::vector<std::uint64_t> out = counts_;
    // Cycles 0 .. cur_cycle_ - 1 all closed; the ones that issued
    // nothing are whatever the non-empty closed cycles leave.
    out[0] = cur_cycle_;
    for (std::size_t k = 1; k < out.size(); ++k)
        out[0] -= out[k];
    if (cur_count_ > 0)
        ++out[cur_count_];
    return out;
}

double
IssueEngine::baseCycles() const
{
    return static_cast<double>(last_complete_) /
           static_cast<double>(config_.pipelineDegree);
}

double
IssueEngine::instrPerBaseCycle() const
{
    SS_ASSERT(last_complete_ > 0, "no instructions simulated");
    return static_cast<double>(instructions()) / baseCycles();
}

std::uint64_t
IssueEngine::issuePeriodMinorCycles() const
{
    return cur_count_ > 0 ? cur_cycle_ + 1 : 0;
}

std::uint64_t
IssueEngine::lostIssueSlots() const
{
    return issuePeriodMinorCycles() * width_ - instructions();
}

StallBreakdown
IssueEngine::stallBreakdown() const
{
    StallBreakdown bd = stalls_;
    // The final, still-open cycle: slots past the last issue had no
    // instruction left to claim them.
    if (cur_count_ > 0)
        bd[StallCause::FrontendDrain] += width_ - cur_count_;
    return bd;
}

std::uint64_t
IssueEngine::completionTailMinorCycles() const
{
    return last_complete_ - issuePeriodMinorCycles();
}

void
IssueEngine::enableProfile(std::size_t pcCount)
{
    profile_enabled_ = true;
    observing_ = true;
    profile_.assign(pcCount + 1, PcCounters{});
    last_profile_slot_ = pcCount; // unattributed until the 1st issue
}

std::vector<PcCounters>
IssueEngine::profileCounters() const
{
    SS_ASSERT(profile_enabled_,
              "profileCounters() without enableProfile()");
    std::vector<PcCounters> out = profile_;
    // Mirror stallBreakdown(): the still-open final cycle's empty
    // slots drained with no instruction left to claim them; charge
    // them to the last instruction that did issue so per-pc records
    // sum exactly to the aggregate breakdown.
    if (cur_count_ > 0)
        out[last_profile_slot_].stallSlots[static_cast<std::size_t>(
            StallCause::FrontendDrain)] += width_ - cur_count_;
    return out;
}

void
IssueEngine::recordTimeline(std::size_t limit)
{
    timeline_enabled_ = limit > 0;
    observing_ = profile_enabled_ || timeline_enabled_;
    timeline_limit_ = limit;
    timeline_.reserve(std::min<std::size_t>(limit, 1 << 16));
}

namespace {

/** A histogram of sample counts per key 0..counts.size()-1, one
 *  bucket per key: totals, mean, extremes and the non-empty buckets. */
Json
histogramJson(const std::vector<std::uint64_t> &counts)
{
    std::uint64_t count = 0;
    double sum = 0.0;
    std::int64_t min = 0, max = 0;
    Json buckets = Json::object();
    for (std::size_t k = 0; k < counts.size(); ++k) {
        if (counts[k] == 0)
            continue;
        if (count == 0)
            min = static_cast<std::int64_t>(k);
        max = static_cast<std::int64_t>(k);
        count += counts[k];
        sum += static_cast<double>(k) * static_cast<double>(counts[k]);
        buckets.set(std::to_string(k), Json(counts[k]));
    }
    Json j = Json::object();
    j.set("count", Json(count));
    j.set("sum", Json(sum));
    j.set("mean", Json(count ? sum / static_cast<double>(count) : 0.0));
    j.set("min", Json(min));
    j.set("max", Json(max));
    j.set("bucket_width", Json(1));
    j.set("buckets", std::move(buckets));
    return j;
}

} // namespace

Json
IssueEngine::exportStats() const
{
    const std::uint64_t period = issuePeriodMinorCycles();
    Json g = Json::object();
    g.set("instructions", Json(instructions()));
    g.set("minor_cycles", Json(minorCycles()));
    g.set("base_cycles", Json(baseCycles()));
    g.set("ipc", Json(last_complete_ > 0 ? instrPerBaseCycle() : 0.0));
    g.set("issue_period_minor_cycles", Json(period));
    g.set("issue_slots_total", Json(period * width_));
    g.set("lost_issue_slots", Json(lostIssueSlots()));
    g.set("completion_tail_minor_cycles",
          Json(completionTailMinorCycles()));
    g.set("issued_per_cycle", histogramJson(issueCounts()));

    Json stall = Json::object();
    StallBreakdown bd = stallBreakdown();
    for (std::size_t c = 0; c < kNumStallCauses; ++c)
        stall.set(stallCauseName(static_cast<StallCause>(c)),
                  Json(bd.slots[c]));
    g.set("stall", std::move(stall));

    Json cls_g = Json::object();
    for (std::size_t c = 0; c < kNumInstrClasses; ++c) {
        if (class_issued_[c] > 0)
            cls_g.set(std::string(instrClassName(
                          static_cast<InstrClass>(c))),
                      Json(class_issued_[c]));
    }
    g.set("class_issued", std::move(cls_g));
    return g;
}

double
simulateTrace(const TraceBuffer &trace, const MachineConfig &config)
{
    IssueEngine engine(config);
    trace.replay(engine);
    return engine.baseCycles();
}

} // namespace ilp
