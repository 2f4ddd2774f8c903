/**
 * @file
 * Experiment harness shared by the bench binaries and the CLI: the
 * speedup of one (workload, machine) cell relative to the base
 * machine.  A Study evaluates cells; it never fans out itself.
 * Callers sweep their cells as one flat grid on one SweepRunner and
 * aggregate after the barrier — e.g. the suite harmonic means §4.3
 * plots ("the harmonic mean of all eight benchmarks").
 *
 * Every point reschedules the workload *for the machine being
 * evaluated* (the paper's system recompiles per machine
 * specification) — but only the scheduler reads the machine, so the
 * machine-independent prefix (parse, optimize, allocate) is shared
 * through a CompileCache and every point schedules its own copy.
 * Every timing run executes its Module live.
 *
 * No cell times the base machine.  §2.1's base machine never stalls,
 * so its cycles equal the dynamic instruction count, and the
 * scheduler only reorders instructions within a block, so every
 * schedule of one prefix executes the same count: a speedup over the
 * base machine is the measured run's instructions over its cycles
 * (tests/study_test.cc checks both facts for every option set the
 * artifacts use).
 *
 * A Study is safe to use from many threads at once: the compile
 * cache is future-based (one producer per key, everyone else blocks
 * on the result), and each timing evaluation runs in its own executor
 * and IssueEngine over a Module nothing else mutates.
 */

#ifndef SUPERSYM_CORE_STUDY_EXPERIMENT_HH
#define SUPERSYM_CORE_STUDY_EXPERIMENT_HH

#include <string>

#include "core/study/profile.hh"
#include "core/study/sweep.hh"
#include "core/study/whatif.hh"

namespace ilp {

class Study
{
  public:
    /** @param jobs Worker count of runner(); <= 0 resolves via
     *  defaultSweepJobs() (SSIM_JOBS, then hardware). */
    explicit Study(int jobs = 0) : runner_(jobs) {}

    /**
     * Speedup of `machine` over the base machine (§4's "relative
     * performance"), from one run of the workload scheduled for
     * `machine`: its instructions over its cycles, which is the base
     * machine's cycles over its cycles (see the file comment).
     * Throws TrapException when the run traps.
     */
    double speedup(const Workload &workload,
                   const MachineConfig &machine,
                   const CompileOptions &options);

    /** speedup() with each workload's default options. */
    double speedup(const Workload &workload,
                   const MachineConfig &machine);

    /**
     * Compile (via the compile cache) and time `workload` on
     * `machine` with runOnMachine() — the study-level equivalent of
     * runWorkload(), byte-identical to it whether the compile cache
     * hits or misses.  A trapped run surfaces through RunOutcome::trap.
     */
    RunOutcome timedRun(const Workload &workload,
                        const MachineConfig &machine,
                        const CompileOptions &options,
                        const RunTelemetryOptions &telemetry = {});

    /**
     * timedRun() with the cycle profiler enabled, assembled into a
     * prof::Profile (per-pc counters mapped back onto the compiled
     * code, from the one module compiled and run).  Deterministic:
     * independent of the study's job count.
     * Throws TrapException when the workload faults — a profile of a
     * partial run would not reconcile.
     */
    prof::Profile profiledRun(const Workload &workload,
                              const MachineConfig &machine,
                              const CompileOptions &options);

    /**
     * Available parallelism of one workload at a compile
     * configuration: speedup on an ideal superscalar machine of
     * `degree`, unit latencies (§4: "the available parallelism must
     * be divided by the average operation latency" — unit latencies
     * make speedup and parallelism coincide).
     */
    double availableParallelism(const Workload &workload,
                                const CompileOptions &options,
                                int degree = 8);

    /** The worker pool (for callers fanning out their own cells). */
    const SweepRunner &runner() const { return runner_; }

    /** Shared compilation prefixes (for hit accounting). */
    CompileCache &compileCache() { return cache_; }
    const CompileCache &compileCache() const { return cache_; }

    /**
     * The dynamic dependence graph of `workload` compiled for
     * `machine`, streamed straight out of a live execution of the
     * (compile-cached) module.  Throws TrapException when the
     * workload faults.
     */
    DepGraph dependenceGraph(const Workload &workload,
                             const MachineConfig &machine,
                             const CompileOptions &options);

    /** Stable identity of a (workload, compile options) pair:
     *  fingerprints sweep journals. */
    static std::string fingerprint(const Workload &workload,
                                   const CompileOptions &options);

  private:
    SweepRunner runner_;
    CompileCache cache_;
};

} // namespace ilp

#endif // SUPERSYM_CORE_STUDY_EXPERIMENT_HH
