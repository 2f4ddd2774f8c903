#include "sim/issue.hh"

#include <algorithm>
#include <cstring>

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
        row.memory = isMem(opcode);
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
    store_ready_.growTo(word);
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

// ------------------------------------------------------ segment memo

namespace {

/** A memo entry's header words (IssueEngine::memo_), then its key. */
constexpr std::size_t kEntryNext = 0;
constexpr std::size_t kEntryHits = 1; // two words
constexpr std::size_t kEntryTallies = 3;
constexpr std::size_t kEntryKey = 4;

/** The key word of a load or store whose word an earlier store of
 *  its segment wrote: this tag | that store's index among the
 *  segment's stores.  Relative times stay below it. */
constexpr std::uint32_t kAliasTag = std::uint32_t{1} << 31;

/** The largest value a 32-bit memo word holds as a count. */
constexpr std::uint64_t kWordMax = 0xffffffffu;

/** Past these bounds a miss is still timed, but not recorded. */
constexpr std::uint32_t kMaxEntriesPerSegment = 16;
constexpr std::size_t kMaxMemoWords = std::size_t{1} << 20;

/** Time `t` relative to `base`, clamped at 0: below kAliasTag for
 *  every time the engine holds (see IssueEngine::memo_). */
SS_ALWAYS_INLINE std::uint32_t
since(std::uint64_t t, std::uint64_t base)
{
    return static_cast<std::uint32_t>(std::max(t, base) - base);
}

/** The ready-table word of a segment's load or store address (a real
 *  memory address, so never negative). */
SS_ALWAYS_INLINE std::size_t
wordOf(std::int64_t addr)
{
    return static_cast<std::size_t>(addr) / kWordBytes;
}

/** A SegmentTable register as issue() takes it. */
SS_ALWAYS_INLINE Reg
reg32(std::uint16_t r)
{
    return r == SegmentTable::kNone ? kNoReg : static_cast<Reg>(r);
}

/** The two-word hit count of the entry whose header is at `at`. */
SS_ALWAYS_INLINE std::uint64_t
hitsAt(const std::uint32_t *at)
{
    std::uint64_t hits;
    std::memcpy(&hits, at + kEntryHits, sizeof hits);
    return hits;
}

SS_ALWAYS_INLINE void
setHitsAt(std::uint32_t *at, std::uint64_t hits)
{
    std::memcpy(at + kEntryHits, &hits, sizeof hits);
}

} // namespace

void
IssueEngine::beginSegments(const SegmentTable &table)
{
    memo_chain_.assign(table.segments.size(), MemoChain{});
    memo_.clear();
    std::size_t longest = 0;
    for (const SegmentTable::Segment &seg : table.segments)
        longest = std::max<std::size_t>(longest,
                                        seg.numLiveIn + seg.numMem);
    key_.assign(2 + unit_free_.size() + longest, 0);
    // Every register a segment names is in range from here on, so
    // the key reads reg_ready_ unchecked.
    if (reg_ready_.size() < table.numRegs)
        reg_ready_.resize(table.numRegs, 0);
}

SS_NOINLINE void
IssueEngine::issueOps(const SegmentTable &table,
                      const SegmentTable::Segment &seg,
                      std::uint32_t count, const std::int64_t *addrs)
{
    const SegmentTable::Op *op = table.ops.data() + seg.opBegin;
    for (std::uint32_t i = 0; i < count; ++i, ++op) {
        const std::int64_t addr =
            rows_[static_cast<std::size_t>(op->op)].memory ? *addrs++
                                                           : -1;
        issue(op->op, reg32(op->dst), reg32(op->a), reg32(op->b), addr,
              op->pc);
    }
}

SS_ALWAYS_INLINE std::size_t
IssueEngine::buildKey(const SegmentTable &table,
                      const SegmentTable::Segment &seg,
                      const std::int64_t *addrs,
                      const std::uint32_t *stored, std::uint32_t &diff)
{
    // Every time the segment reads, relative to the cycle it enters
    // in and clamped at 0: no instruction issues before cur_cycle_,
    // so an earlier time neither delays an issue nor binds a stall.
    const std::uint64_t entry = cur_cycle_;
    auto ready = [this](std::size_t word) {
        return word < store_ready_.size() ? store_ready_[word] : 0;
    };
    std::uint32_t *const key = key_.data();
    std::uint32_t *k = key;
    std::uint32_t d = 0;
    auto put = [&](std::uint32_t v) {
        d |= v ^ stored[k - key];
        *k++ = v;
    };
    put(static_cast<std::uint32_t>(cur_count_));
    put(since(fence_, entry));
    const std::uint32_t *live = table.lists.data() + seg.liveInBegin;
    for (std::uint32_t i = 0; i < seg.numLiveIn; ++i)
        put(since(reg_ready_[live[i]], entry));
    for (std::uint64_t free : unit_free_)
        put(since(free, entry));
    // A load or store reads its word's ready time, unless an earlier
    // store of the segment wrote that word: then it reads that
    // store's completion, which the rest of the key determines.
    if (seg.numStores == 0) {
        for (std::uint32_t m = 0; m < seg.numMem; ++m)
            put(since(ready(wordOf(addrs[m])), entry));
        diff = d;
        return static_cast<std::size_t>(k - key);
    }
    const std::uint32_t *stores = table.lists.data() + seg.storeBegin;
    std::uint32_t earlier = 0;
    for (std::uint32_t m = 0; m < seg.numMem; ++m) {
        while (earlier < seg.numStores && stores[earlier] < m)
            ++earlier;
        const std::size_t word = wordOf(addrs[m]);
        std::uint32_t s = earlier;
        while (s > 0 && wordOf(addrs[stores[s - 1]]) != word)
            --s;
        put(s > 0 ? kAliasTag | (s - 1) : since(ready(word), entry));
    }
    diff = d;
    return static_cast<std::size_t>(k - key);
}

SS_ALWAYS_INLINE void
IssueEngine::replay(const SegmentTable &table,
                    const SegmentTable::Segment &seg, std::size_t e,
                    std::size_t keyLength, const std::int64_t *addrs)
{
    std::uint32_t *const at = memo_.data() + e;
    const std::uint32_t *out = at + kEntryKey + keyLength;
    const std::uint64_t exit = cur_cycle_ + out[0];
    cur_cycle_ = exit;
    cur_count_ = out[1];
    fence_ = exit + out[2];
    last_complete_ = std::max(last_complete_, exit + out[3]);
    out += 4;
    // The miss that recorded this entry grew reg_ready_ past every
    // def; the store words are this entry's own.
    const std::uint32_t *defs = table.lists.data() + seg.defBegin;
    for (std::uint32_t i = 0; i < seg.numDefs; ++i)
        reg_ready_[defs[i]] = exit + *out++;
    const std::uint32_t *stores = table.lists.data() + seg.storeBegin;
    for (std::uint32_t i = 0; i < seg.numStores; ++i) {
        const std::size_t word = wordOf(addrs[stores[i]]);
        if (word >= store_ready_.size()) [[unlikely]]
            growStoreReady(word);
        store_ready_[word] = exit + *out++;
    }
    for (std::uint64_t &free : unit_free_)
        free = exit + *out++;
    setHitsAt(at, hitsAt(at) + 1);
}

std::uint64_t &
IssueEngine::tally(std::size_t i)
{
    return i < kNumStallCauses ? stalls_.slots[i]
                               : counts_[i - kNumStallCauses];
}

SS_NOINLINE void
IssueEngine::record(const SegmentTable &table,
                    const SegmentTable::Segment &seg, std::uint32_t id,
                    std::size_t keyLength, const std::int64_t *addrs)
{
    MemoChain &chain = memo_chain_[id];
    if (chain.entries >= kMaxEntriesPerSegment ||
        memo_.size() >= kMaxMemoWords) {
        issueOps(table, seg, seg.numOps, addrs);
        return;
    }
    const std::uint64_t entry = cur_cycle_;
    const std::size_t tallies = kNumStallCauses + counts_.size();
    before_.resize(tallies);
    for (std::size_t i = 0; i < tallies; ++i)
        before_[i] = tally(i);
    // Time the segment with last_complete_ zeroed, to learn its own
    // latest completion.
    const std::uint64_t last = last_complete_;
    last_complete_ = 0;
    issueOps(table, seg, seg.numOps, addrs);
    const std::uint64_t own = last_complete_;
    last_complete_ = std::max(last, own);
    if (cur_cycle_ - entry > kWordMax)
        return; // too long a segment to pack: no entry

    // Times before the exit cycle are clamped to it, like the key's
    // times before the entry cycle.
    const std::uint64_t exit = cur_cycle_;
    const std::size_t e = memo_.size();
    memo_.insert(memo_.end(), kEntryKey, 0);
    memo_[e + kEntryNext] = chain.first;
    memo_.insert(memo_.end(), key_.begin(),
                 key_.begin() + static_cast<std::ptrdiff_t>(keyLength));
    memo_.push_back(static_cast<std::uint32_t>(exit - entry));
    memo_.push_back(static_cast<std::uint32_t>(cur_count_));
    memo_.push_back(since(fence_, exit));
    memo_.push_back(since(own, exit));
    const std::uint32_t *defs = table.lists.data() + seg.defBegin;
    for (std::uint32_t i = 0; i < seg.numDefs; ++i)
        memo_.push_back(since(reg_ready_[defs[i]], exit));
    const std::uint32_t *stores = table.lists.data() + seg.storeBegin;
    for (std::uint32_t i = 0; i < seg.numStores; ++i)
        memo_.push_back(
            since(store_ready_[wordOf(addrs[stores[i]])], exit));
    for (std::uint64_t free : unit_free_)
        memo_.push_back(since(free, exit));
    const std::size_t count = memo_.size();
    memo_[e + kEntryTallies] = static_cast<std::uint32_t>(count);
    memo_.push_back(0);
    for (std::size_t i = 0; i < tallies; ++i) {
        const std::uint64_t delta = tally(i) - before_[i];
        if (delta > kWordMax) {
            memo_.resize(e); // too many lost slots to pack: no entry
            return;
        }
        if (delta != 0) {
            memo_.push_back(static_cast<std::uint32_t>(i));
            memo_.push_back(static_cast<std::uint32_t>(delta));
            ++memo_[count];
        }
    }
    chain.first = static_cast<std::uint32_t>(e);
    ++chain.entries;
}

void
IssueEngine::timeSegment(const SegmentTable &table, std::uint32_t id,
                         const std::int64_t *addrs)
{
    const SegmentTable::Segment &seg = table.segments[id];
    if (observing_) [[unlikely]] {
        issueOps(table, seg, seg.numOps, addrs);
        return;
    }
    // The key is compared with the newest-hit entry as it is built;
    // the others, if any, after.
    MemoChain &chain = memo_chain_[id];
    const std::uint32_t *const first =
        chain.entries > 0 ? memo_.data() + chain.first + kEntryKey
                          : key_.data();
    std::uint32_t diff = 0;
    const std::size_t length = buildKey(table, seg, addrs, first, diff);
    if (chain.entries > 0 && diff == 0) {
        replay(table, seg, chain.first, length, addrs);
        return;
    }
    const std::uint32_t *const key = key_.data();
    std::size_t prev = chain.first;
    for (std::uint32_t n = 1; n < chain.entries; ++n) {
        const std::size_t e = memo_[prev + kEntryNext];
        const std::uint32_t *const stored = memo_.data() + e + kEntryKey;
        std::size_t i = 0;
        while (i < length && stored[i] == key[i])
            ++i;
        if (i == length) {
            replay(table, seg, e, length, addrs);
            // Newest hit first: the next entry is likely the same.
            memo_[prev + kEntryNext] = memo_[e + kEntryNext];
            memo_[e + kEntryNext] = chain.first;
            chain.first = static_cast<std::uint32_t>(e);
            return;
        }
        prev = e;
    }
    record(table, seg, id, length, addrs);
}

void
IssueEngine::timePrefix(const SegmentTable &table, std::uint32_t id,
                        std::uint32_t count, const std::int64_t *addrs)
{
    issueOps(table, table.segments[id], count, addrs);
}

void
IssueEngine::foldSegments(const SegmentTable &table)
{
    for (std::size_t id = 0; id < memo_chain_.size(); ++id) {
        const MemoChain &chain = memo_chain_[id];
        std::uint64_t segment_hits = 0;
        std::size_t e = chain.first;
        for (std::uint32_t n = 0; n < chain.entries; ++n) {
            std::uint32_t *const at = memo_.data() + e;
            const std::uint64_t hits = hitsAt(at);
            setHitsAt(at, 0);
            segment_hits += hits;
            const std::uint32_t *t = memo_.data() + at[kEntryTallies];
            for (std::uint32_t i = 0; i < t[0]; ++i)
                tally(t[1 + 2 * i]) += hits * t[2 + 2 * i];
            e = at[kEntryNext];
        }
        // A hit issued each of the segment's instructions once.
        const SegmentTable::Segment &seg = table.segments[id];
        for (std::uint32_t i = 0; i < seg.numOps && segment_hits; ++i) {
            const Opcode op = table.ops[seg.opBegin + i].op;
            class_issued_[static_cast<std::size_t>(
                rows_[static_cast<std::size_t>(op)].cls)] += segment_hits;
        }
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

} // namespace ilp
