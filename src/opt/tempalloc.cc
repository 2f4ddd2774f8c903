#include <algorithm>
#include <limits>

#include "ir/liveness.hh"
#include "opt/passes.hh"
#include "support/diag.hh"
#include "support/logging.hh"

namespace ilp {

namespace {

constexpr std::uint32_t kNoInterval = 0xffffffffu;

struct Interval
{
    Reg reg = kNoReg;
    std::uint32_t start = kNoInterval;
    std::uint32_t end = 0;
    bool isFloat = false;

    bool live() const { return start != kNoInterval; }
    std::uint32_t length() const { return end - start; }
};

/**
 * Compute one conservative live interval per virtual register over a
 * linearization of the blocks (liveness-extended to block boundaries).
 * Pinned registers and the frame pointer are skipped.
 */
std::vector<Interval>
buildIntervals(Function &func)
{
    Liveness live(func);

    std::vector<Interval> iv(func.numVirtRegs);
    for (Reg r = 0; r < func.numVirtRegs; ++r)
        iv[r].reg = r;

    auto touch = [&](Reg r, std::uint32_t pos) {
        if (r == kNoReg)
            return;
        iv[r].start = std::min(iv[r].start, pos);
        iv[r].end = std::max(iv[r].end, pos);
    };

    std::uint32_t pos = 0;
    for (const auto &bb : func.blocks) {
        std::uint32_t block_start = pos;
        std::uint32_t block_end =
            pos + static_cast<std::uint32_t>(bb.instrs.size());
        Liveness::forEach(live.liveInWords(bb.id), live.words(),
                          [&](Reg r) { touch(r, block_start); });
        Liveness::forEach(live.liveOutWords(bb.id), live.words(),
                          [&](Reg r) { touch(r, block_end); });
        for (const auto &in : bb.instrs) {
            in.forEachSrc([&](Reg r) { touch(r, pos); });
            if (in.dst != kNoReg) {
                touch(in.dst, pos);
                if (producesFloat(in.op))
                    iv[in.dst].isFloat = true;
            }
            ++pos;
        }
        ++pos; // leave a gap between blocks
    }

    // Parameters are live from function entry (the caller's values
    // arrive before the first instruction).
    for (Reg p : func.paramRegs) {
        if (iv[p].live())
            iv[p].start = 0;
    }
    return iv;
}

/** Max number of simultaneously-live unpinned intervals; fills
 *  `peak_out` with the registers live at the peak. */
std::uint32_t
maxPressure(const Function &func, const std::vector<Interval> &iv,
            std::vector<Reg> *peak_out)
{
    // Sweep events.
    struct Event
    {
        std::uint32_t pos;
        bool start;
        Reg reg;
    };
    std::vector<Event> events;
    for (const auto &i : iv) {
        if (!i.live() || func.pinnedRegs.count(i.reg) ||
            i.reg == func.fpReg)
            continue;
        events.push_back({i.start, true, i.reg});
        events.push_back({i.end + 1, false, i.reg});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) {
                  if (a.pos != b.pos)
                      return a.pos < b.pos;
                  return a.start < b.start; // ends before starts
              });

    std::uint32_t cur = 0, best = 0;
    std::vector<Reg> active;
    for (const auto &e : events) {
        if (e.start) {
            active.push_back(e.reg);
            ++cur;
            if (cur > best) {
                best = cur;
                if (peak_out)
                    *peak_out = active;
            }
        } else {
            active.erase(
                std::find(active.begin(), active.end(), e.reg));
            --cur;
        }
    }
    return best;
}

/**
 * Rewrite every def/use of `victim` through a fresh frame slot.  For
 * a parameter register (whose value arrives at entry with no defining
 * instruction) a store is planted at the top of the entry block, so
 * the register's live range shrinks to that single point.
 */
void
demoteToMemory(Function &func, Reg victim, bool is_float,
               bool is_param)
{
    std::int64_t off = func.addFrameSlot(
        "spill.v" + std::to_string(victim), is_float);
    Opcode ld = is_float ? Opcode::LoadF : Opcode::LoadW;
    Opcode st = is_float ? Opcode::StoreF : Opcode::StoreW;

    for (auto &bb : func.blocks) {
        std::vector<Instr> out;
        out.reserve(bb.instrs.size());
        for (auto &in : bb.instrs) {
            bool uses = false;
            in.forEachSrc([&](Reg r) { uses |= (r == victim); });
            if (uses) {
                Reg tmp = func.newVirtReg();
                out.push_back(
                    Instr::load(ld, tmp, func.fpReg, off).at(in.loc));
                in.rewriteSrcs(
                    [&](Reg r) { return r == victim ? tmp : r; });
            }
            if (in.dst == victim) {
                Reg tmp = func.newVirtReg();
                in.dst = tmp;
                out.push_back(in);
                out.push_back(
                    Instr::store(st, func.fpReg, off, tmp).at(in.loc));
            } else {
                out.push_back(in);
            }
        }
        bb.instrs = std::move(out);
    }

    if (is_param) {
        auto &entry = func.entry().instrs;
        entry.insert(entry.begin(),
                     Instr::store(st, func.fpReg, off, victim));
    }
}

} // namespace

int
assignRegisters(Function &func, const RegFileLayout &layout)
{
    SS_ASSERT(!func.allocated, "assignRegisters: already allocated");
    int spills = 0;

    // Pin the frame pointer.
    if (func.fpReg != kNoReg)
        func.pinnedRegs[func.fpReg] = layout.fp();

    // Demote long-lived registers until the peak pressure fits the
    // temp supply (the paper's finite temporary register file, §3).
    std::vector<Interval> iv;
    int guard = 0;
    while (true) {
        iv = buildIntervals(func);
        std::vector<Reg> peak;
        std::uint32_t pressure = maxPressure(func, iv, &peak);
        if (pressure <= layout.numTemp)
            break;
        SS_ASSERT(!peak.empty(), "pressure without a peak set");

        // Demote enough of the longest-lived peak registers to fit,
        // in one batch (each round recomputes liveness, so batching
        // keeps the spill loop near-linear).  Minimal intervals are
        // spill reloads: demoting them again only recreates them.
        // Parameters are demotable (their entry store shrinks the
        // range to one point), but only as a last resort.
        auto is_param = [&](Reg r) {
            return std::find(func.paramRegs.begin(),
                             func.paramRegs.end(),
                             r) != func.paramRegs.end();
        };
        std::vector<Reg> victims;
        for (Reg r : peak) {
            if (iv[r].length() >= 2)
                victims.push_back(r);
        }
        if (victims.empty())
            // A machine-configuration limit, not a supersym bug:
            // recoverable so a sweep cell with a tiny temp file
            // degrades into one reportable error.
            throw DiagException(Diag{
                Severity::Error, ErrCode::OptTempRegsExhausted,
                "temp register file too small (" +
                    std::to_string(layout.numTemp) + " temps) for '" +
                    func.name + "'",
                {}});
        std::sort(victims.begin(), victims.end(),
                  [&](Reg a, Reg b) {
                      return iv[a].length() > iv[b].length();
                  });
        std::size_t need = pressure - layout.numTemp;
        if (victims.size() > need)
            victims.resize(need);
        for (Reg v : victims)
            demoteToMemory(func, v, iv[v].isFloat, is_param(v));
        spills += static_cast<int>(victims.size());
        SS_ASSERT(++guard < 10000, "spill loop diverged in ",
                  func.name);
    }

    // Greedy linear scan: interval graphs are perfect, so with peak
    // pressure <= numTemp this always succeeds.
    std::vector<const Interval *> order;
    for (const auto &i : iv) {
        if (!i.live() || func.pinnedRegs.count(i.reg) ||
            i.reg == func.fpReg)
            continue;
        order.push_back(&i);
    }
    std::sort(order.begin(), order.end(),
              [](const Interval *a, const Interval *b) {
                  if (a->start != b->start)
                      return a->start < b->start;
                  return a->reg < b->reg;
              });

    // Pick the least-recently-freed available temp rather than the
    // lowest-numbered one: maximizing the reuse distance minimizes
    // the artificial WAR/WAW dependencies that temp reuse introduces
    // (§3 — reuse "introduces an artificial dependency that can
    // interfere with pipeline scheduling"), which is what a careful
    // hand allocator (and the paper's compiler) would do.
    std::vector<Reg> assignment(func.numVirtRegs, kNoReg);
    std::vector<std::uint32_t> temp_free(layout.numTemp, 0);
    for (const Interval *i : order) {
        std::uint32_t slot = layout.numTemp;
        for (std::uint32_t t = 0; t < layout.numTemp; ++t) {
            if (temp_free[t] > i->start)
                continue;
            if (slot == layout.numTemp ||
                temp_free[t] < temp_free[slot])
                slot = t;
        }
        SS_ASSERT(slot < layout.numTemp,
                  "linear scan failed in ", func.name);
        temp_free[slot] = i->end + 1;
        assignment[i->reg] = layout.tempReg(slot);
    }

    // Pinned registers map directly.
    for (const auto &[vr, pr] : func.pinnedRegs)
        assignment[vr] = pr;

    // Rewrite all operands.
    auto map = [&](Reg r) {
        if (r == kNoReg)
            return r;
        Reg m = assignment[r];
        // Dead registers (never used) may be unassigned; park them in
        // temp 0 — nothing reads them.
        return m == kNoReg ? layout.tempReg(0) : m;
    };
    for (auto &bb : func.blocks) {
        for (auto &in : bb.instrs) {
            if (in.dst != kNoReg)
                in.dst = map(in.dst);
            in.rewriteSrcs([&](Reg r) { return map(r); });
        }
    }
    for (Reg &p : func.paramRegs)
        p = map(p);
    func.fpReg = layout.fp();
    func.pinnedRegs.clear();
    func.layout = layout;
    func.allocated = true;
    return spills;
}

} // namespace ilp
