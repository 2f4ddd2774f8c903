#include "opt/pipeline.hh"

#include "ir/verifier.hh"
#include "support/logging.hh"
#include "support/trace.hh"

namespace ilp {

namespace {

void
localCleanup(Function &func)
{
    for (int round = 0; round < 8; ++round) {
        int changed = 0;
        changed += foldConstants(func);
        changed += localValueNumbering(func);
        changed += globalCopyPropagation(func);
        changed += eliminateDeadCode(func);
        if (!changed)
            break;
    }
}

/**
 * Runs one phase of the per-function pipeline inside a flight-
 * recorder span (its only host-time record), adding IR size deltas
 * to `telemetry` when present.  The phase body returns its "change
 * units" (pass-specific: folds, hoists, spills).
 */
template <typename Fn>
void
runPhase(CompileTelemetry *telemetry, const char *name,
         const Function &func, Fn &&body)
{
    trace::ScopedSpan span(name, "compile");
    if (span.armed())
        span.detail(func.name);
    if (!telemetry) {
        body();
        return;
    }
    const std::uint64_t instrs_before = func.instrCount();
    const std::uint64_t blocks_before = func.blocks.size();
    const std::int64_t changed = static_cast<std::int64_t>(body());

    PhaseStat &ps = telemetry->phase(name);
    ps.runs += 1;
    ps.instrsBefore += instrs_before;
    ps.instrsAfter += func.instrCount();
    ps.blocksBefore += blocks_before;
    ps.blocksAfter += func.blocks.size();
    ps.changed += changed;
}

} // namespace

PhaseStat &
CompileTelemetry::phase(const std::string &name)
{
    for (auto &ps : phases) {
        if (ps.name == name)
            return ps;
    }
    phases.push_back(PhaseStat{});
    phases.back().name = name;
    return phases.back();
}

Json
CompileTelemetry::exportStats() const
{
    Json g = Json::object();
    g.set("spills", Json(spills));
    g.set("sched_fill_rate", Json(sched.fillRate()));
    g.set("sched_blocks_scheduled", Json(sched.blocksScheduled));
    g.set("sched_blocks_skipped", Json(sched.blocksSkipped));
    g.set("sched_slots_filled", Json(sched.slotsFilled));
    g.set("sched_slots_total", Json(sched.slotsTotal));

    Json pg = Json::object();
    for (const auto &ps : phases) {
        Json p = Json::object();
        p.set("runs", Json(ps.runs));
        p.set("instrs_before", Json(ps.instrsBefore));
        p.set("instrs_after", Json(ps.instrsAfter));
        p.set("blocks_before", Json(ps.blocksBefore));
        p.set("blocks_after", Json(ps.blocksAfter));
        p.set("changed", Json(ps.changed));
        pg.set(ps.name, std::move(p));
    }
    g.set("phase", std::move(pg));
    return g;
}

AllocatedModule
allocateModule(Module module, const OptimizeOptions &options,
               CompileTelemetry *telemetry)
{
    // Optimized code may drop or duplicate source locations, but must
    // never invent ones absent from the frontend's output.
    AllocatedModule out;
    out.frontendLocs = collectSourceLocs(module);
    for (auto &func : module.functions()) {
        SS_ASSERT(!func.allocated, "allocateModule: module already "
                                   "allocated");

        if (options.level >= OptLevel::Local) {
            runPhase(telemetry, "local", func, [&] {
                localCleanup(func);
                return 0;
            });
        }

        if (options.level >= OptLevel::Global) {
            runPhase(telemetry, "licm", func, [&] {
                int hoisted = hoistLoopInvariants(module, func);
                if (hoisted > 0)
                    localCleanup(func);
                return hoisted;
            });
        }

        if (options.reassociate) {
            runPhase(telemetry, "reassociate", func, [&] {
                int chains = reassociate(func);
                eliminateDeadCode(func);
                return chains;
            });
        }

        if (options.level >= OptLevel::RegAlloc) {
            runPhase(telemetry, "home_promotion", func, [&] {
                int promoted =
                    allocateHomeRegisters(func, options.layout);
                localCleanup(func);
                return promoted;
            });
            // Induction-variable strength reduction needs the
            // register-resident loop variables home promotion just
            // created.
            runPhase(telemetry, "strength", func, [&] {
                int reduced = strengthReduceLoops(func);
                if (reduced > 0)
                    localCleanup(func);
                return reduced;
            });
        }

        runPhase(telemetry, "regalloc", func, [&] {
            int spilled = assignRegisters(func, options.layout);
            if (telemetry)
                telemetry->spills +=
                    static_cast<std::uint64_t>(spilled);
            return spilled;
        });
    }
    out.module = std::move(module);
    return out;
}

void
scheduleModule(Module &module, const std::vector<SrcLoc> &frontendLocs,
               const MachineConfig &machine,
               const OptimizeOptions &options,
               CompileTelemetry *telemetry)
{
    if (options.level >= OptLevel::Sched) {
        for (auto &func : module.functions()) {
            runPhase(telemetry, "sched", func, [&] {
                scheduleFunction(module, func, machine, options.alias,
                                 telemetry ? &telemetry->sched
                                           : nullptr);
                return 0;
            });
        }
    }
    verifyOrDie(module);
    verifySourceLocsOrDie(module, frontendLocs);
    module.assignPcs();
}

void
optimizeModule(Module &module, const MachineConfig &machine,
               const OptimizeOptions &options,
               CompileTelemetry *telemetry)
{
    machine.validate();
    AllocatedModule prefix =
        allocateModule(std::move(module), options, telemetry);
    scheduleModule(prefix.module, prefix.frontendLocs, machine, options,
                   telemetry);
    module = std::move(prefix.module);
}

} // namespace ilp
