#include "core/machine/machine.hh"

#include <algorithm>

#include "support/logging.hh"

namespace ilp {

LatencyTable
unitLatencies()
{
    LatencyTable t;
    t.fill(1);
    return t;
}

bool
FuncUnit::handles(InstrClass cls) const
{
    return std::find(classes.begin(), classes.end(), cls) !=
           classes.end();
}

int
MachineConfig::unitFor(InstrClass cls) const
{
    if (units.empty())
        return -1;
    for (std::size_t i = 0; i < units.size(); ++i) {
        if (units[i].handles(cls))
            return static_cast<int>(i);
    }
    return -1;
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
    }
}

} // namespace

std::uint64_t
MachineConfig::specHash() const
{
    std::uint64_t h = kFnvOffset;
    fnvMix(h, static_cast<std::uint64_t>(issueWidth));
    fnvMix(h, static_cast<std::uint64_t>(pipelineDegree));
    for (int l : latency)
        fnvMix(h, static_cast<std::uint64_t>(l));
    fnvMix(h, units.size());
    for (const FuncUnit &u : units) {
        fnvMix(h, u.classes.size());
        for (InstrClass c : u.classes)
            fnvMix(h, static_cast<std::uint64_t>(c));
        fnvMix(h, static_cast<std::uint64_t>(u.multiplicity));
        fnvMix(h, static_cast<std::uint64_t>(u.issueLatency));
    }
    fnvMix(h, issueAcrossBranches ? 1 : 0);
    return h;
}

void
MachineConfig::validate() const
{
    if (issueWidth < 1)
        SS_FATAL("machine '", name, "': issue width must be >= 1");
    if (pipelineDegree < 1)
        SS_FATAL("machine '", name, "': pipeline degree must be >= 1");
    for (std::size_t c = 0; c < kNumInstrClasses; ++c) {
        if (latency[c] < 1)
            SS_FATAL("machine '", name, "': class ",
                     instrClassName(static_cast<InstrClass>(c)),
                     " has latency ", latency[c], " (must be >= 1)");
    }
    if (!units.empty()) {
        for (std::size_t c = 0; c < kNumInstrClasses; ++c) {
            if (unitFor(static_cast<InstrClass>(c)) < 0)
                SS_FATAL("machine '", name, "': class ",
                         instrClassName(static_cast<InstrClass>(c)),
                         " is not served by any functional unit");
        }
        for (const auto &u : units) {
            if (u.multiplicity < 1 || u.issueLatency < 1)
                SS_FATAL("machine '", name, "': unit '", u.name,
                         "' has non-positive multiplicity or issue "
                         "latency");
        }
    }
}

} // namespace ilp
