#include "sim/issue_ref.hh"

#include <algorithm>

namespace ilp {

RefIssueStepper::RefIssueStepper(const MachineConfig &config)
    : config_(config)
{
    config_.validate();
    for (const FuncUnit &u : config_.units)
        unit_free_.emplace_back(static_cast<std::size_t>(u.multiplicity),
                                0);
    histogram_.assign(static_cast<std::size_t>(config_.issueWidth) + 1,
                      0);
}

void
RefIssueStepper::emit(const DynInstr &di)
{
    Waiting w;
    w.di = di;
    waiting_.push_back(w);
    const std::uint64_t width =
        static_cast<std::uint64_t>(config_.issueWidth);
    bool new_head = true;
    while (!waiting_.empty()) {
        Waiting &head = waiting_.front();
        if (new_head)
            clearTimes(head);
        new_head = false;
        if (issued_ == width) {
            closeCycle();
        } else if (std::max({head.data, head.unit, head.fence}) <=
                   cycle_) {
            issueHead();
            new_head = true;
        } else {
            loseCycle(head);
            closeCycle();
        }
    }
}

void
RefIssueStepper::clearTimes(Waiting &w) const
{
    const DynInstr &di = w.di;
    w.data = 0;
    for (std::uint8_t i = 0; i < di.numSrcs; ++i) {
        const Reg r = di.srcs[i];
        if (r < reg_complete_.size())
            w.data = std::max(w.data, reg_complete_[r]);
    }
    if (di.addr >= 0) {
        auto it = store_complete_.find(di.addr / kWordBytes);
        if (it != store_complete_.end())
            w.data = std::max(w.data, it->second);
    }
    w.cls = di.cls();
    w.unitIndex = config_.unitFor(w.cls);
    w.unit = 0;
    if (w.unitIndex >= 0) {
        const auto &copies =
            unit_free_[static_cast<std::size_t>(w.unitIndex)];
        w.unit = *std::min_element(copies.begin(), copies.end());
    }
    w.fence = fence_until_;
}

void
RefIssueStepper::issueHead()
{
    const Waiting w = waiting_.front();
    waiting_.pop_front();
    const DynInstr &di = w.di;
    const InstrClass cls = w.cls;

    Events &ev = last_events_;
    ev.issue = cycle_;
    ev.complete = cycle_ + static_cast<std::uint64_t>(
                               config_.latencyMinor(cls));
    ++instructions_;
    last_complete_ = std::max(last_complete_, ev.complete);

    if (di.dst != kNoReg) {
        if (di.dst >= reg_complete_.size())
            reg_complete_.resize(static_cast<std::size_t>(di.dst) + 1, 0);
        reg_complete_[di.dst] = ev.complete;
    }
    if (di.addr >= 0 && isStore(di.op))
        store_complete_[di.addr / kWordBytes] = ev.complete;
    if (w.unitIndex >= 0) {
        const std::size_t u = static_cast<std::size_t>(w.unitIndex);
        for (std::uint64_t &copy : unit_free_[u]) {
            if (copy <= cycle_) {
                copy = cycle_ + static_cast<std::uint64_t>(
                                    config_.units[u].issueLatency);
                break;
            }
        }
    }
    if (!config_.issueAcrossBranches &&
        (cls == InstrClass::Branch || cls == InstrClass::Jump))
        fence_until_ = cycle_ + 1;

    ++class_issued_[static_cast<std::size_t>(cls)];
    ++issued_;
    ++counters(di.pc).issued;
    last_pc_ = di.pc;
}

void
RefIssueStepper::loseCycle(const Waiting &w)
{
    const std::uint64_t last = std::max({w.data, w.unit, w.fence});
    StallCause cause = StallCause::BranchFence;
    if (w.data == last)
        cause = StallCause::RawLatency;
    else if (w.unit == last)
        cause = StallCause::UnitConflict;
    const std::uint64_t slots =
        static_cast<std::uint64_t>(config_.issueWidth) - issued_;
    stalls_[cause] += slots;
    counters(w.di.pc).stallSlots[static_cast<std::size_t>(cause)] +=
        slots;
}

PcCounters &
RefIssueStepper::counters(Pc pc)
{
    if (pc == kNoPc)
        return no_pc_;
    if (pc >= per_pc_.size())
        per_pc_.resize(static_cast<std::size_t>(pc) + 1);
    return per_pc_[pc];
}

void
RefIssueStepper::closeCycle()
{
    ++histogram_[issued_];
    ++cycle_;
    issued_ = 0;
}

std::uint64_t
RefIssueStepper::issuePeriodMinorCycles() const
{
    return instructions_ == 0 ? 0 : cycle_ + 1;
}

std::uint64_t
RefIssueStepper::completionTailMinorCycles() const
{
    return last_complete_ - issuePeriodMinorCycles();
}

StallBreakdown
RefIssueStepper::stallBreakdown() const
{
    StallBreakdown bd = stalls_;
    if (!instructions_ == 0)
        bd[StallCause::FrontendDrain] +=
            static_cast<std::uint64_t>(config_.issueWidth) - issued_;
    return bd;
}

std::vector<std::uint64_t>
RefIssueStepper::issueCounts() const
{
    std::vector<std::uint64_t> out = histogram_;
    if (issued_ > 0)
        ++out[issued_];
    return out;
}

std::vector<PcCounters>
RefIssueStepper::profileCounters(std::size_t pcCount) const
{
    std::vector<PcCounters> out(pcCount + 1);
    auto add = [](PcCounters &to, const PcCounters &from) {
        to.issued += from.issued;
        for (std::size_t k = 0; k < kNumStallCauses; ++k)
            to.stallSlots[k] += from.stallSlots[k];
    };
    for (std::size_t pc = 0; pc < per_pc_.size(); ++pc)
        add(out[std::min(pc, pcCount)], per_pc_[pc]);
    add(out[pcCount], no_pc_);
    if (!instructions_ == 0)
        out[last_pc_ < pcCount ? last_pc_ : pcCount]
            .stallSlots[static_cast<std::size_t>(
                StallCause::FrontendDrain)] +=
            static_cast<std::uint64_t>(config_.issueWidth) - issued_;
    return out;
}

} // namespace ilp
