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

void
CompileTelemetry::exportStats(stats::Group &g) const
{
    g.counter("spills", "virtual registers demoted to memory")
        .inc(spills);
    g.scalar("sched_fill_rate",
             "static issue slots filled / available")
        .set(sched.fillRate());
    g.counter("sched_blocks_scheduled", "blocks list-scheduled")
        .inc(sched.blocksScheduled);
    g.counter("sched_blocks_skipped", "blocks too small to schedule")
        .inc(sched.blocksSkipped);
    g.counter("sched_slots_filled", "instructions placed")
        .inc(sched.slotsFilled);
    g.counter("sched_slots_total", "issueWidth * schedule length")
        .inc(sched.slotsTotal);

    stats::Group &pg = g.group("phase", "per-phase telemetry");
    for (const auto &ps : phases) {
        stats::Group &p = pg.group(ps.name);
        p.counter("runs").inc(ps.runs);
        p.counter("instrs_before").inc(ps.instrsBefore);
        p.counter("instrs_after").inc(ps.instrsAfter);
        p.counter("blocks_before").inc(ps.blocksBefore);
        p.counter("blocks_after").inc(ps.blocksAfter);
        p.scalar("changed", "pass-reported change units")
            .set(static_cast<double>(ps.changed));
    }
}

void
optimizeModule(Module &module, const MachineConfig &machine,
               const OptimizeOptions &options,
               CompileTelemetry *telemetry)
{
    machine.validate();
    // Optimized code may drop or duplicate source locations, but must
    // never invent ones absent from the frontend's output.
    const std::vector<SrcLoc> allowed_locs = collectSourceLocs(module);
    for (auto &func : module.functions()) {
        SS_ASSERT(!func.allocated, "optimizeModule: module already "
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

        if (options.level >= OptLevel::Sched) {
            runPhase(telemetry, "sched", func, [&] {
                scheduleFunction(module, func, machine, options.alias,
                                 telemetry ? &telemetry->sched
                                           : nullptr);
                return 0;
            });
        }
    }
    verifyOrDie(module);
    verifySourceLocsOrDie(module, allowed_locs);
    module.assignPcs();
}

} // namespace ilp
