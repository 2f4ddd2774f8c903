/**
 * Tests for the parallel sweep engine (core/study/sweep.hh) and the
 * run/stats plumbing it hardened: SweepRunner determinism and error
 * propagation, keep-going sweeps, CompileCache keying and hit
 * accounting, parallel==serial bit-identity for sweeps/tables/stats,
 * the RunOutcome::ipc zero-cycle guard, non-finite JSON handling, and
 * Json::tryParse.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <random>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/machine/models.hh"
#include "core/study/experiment.hh"
#include "core/study/sweep.hh"
#include "ir/printer.hh"
#include "sim/trap.hh"
#include "support/table.hh"
#include "tests/helpers.hh"

namespace ilp {
namespace {

// ------------------------------------------------------- SweepRunner

TEST(SweepRunnerTest, CoversEveryIndexExactlyOnce)
{
    for (int jobs : {1, 2, 8}) {
        SweepRunner runner(jobs);
        std::vector<std::atomic<int>> seen(257);
        runner.run(seen.size(),
                   [&](std::size_t i) { seen[i].fetch_add(1); });
        for (std::size_t i = 0; i < seen.size(); ++i)
            EXPECT_EQ(seen[i].load(), 1) << "index " << i
                                         << " jobs " << jobs;
    }
}

TEST(SweepRunnerTest, MapIsIndexOrderedAtAnyJobCount)
{
    SweepRunner serial(1);
    std::vector<long> expect = serial.map<long>(
        100, [](std::size_t i) { return static_cast<long>(i * i); });
    for (int jobs : {2, 8}) {
        SweepRunner runner(jobs);
        std::vector<long> got = runner.map<long>(
            100,
            [](std::size_t i) { return static_cast<long>(i * i); });
        EXPECT_EQ(got, expect) << "jobs " << jobs;
    }
}

TEST(SweepRunnerTest, EmptySweepIsANoop)
{
    SweepRunner runner(4);
    bool called = false;
    runner.run(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(SweepRunnerTest, RethrowsFirstCellException)
{
    SweepRunner runner(4);
    EXPECT_THROW(
        runner.run(64,
                   [](std::size_t i) {
                       if (i == 13)
                           throw std::runtime_error("cell 13");
                   }),
        std::runtime_error);
}

TEST(SweepRunnerTest, JobResolutionFromEnvironment)
{
    ::setenv("SSIM_JOBS", "3", 1);
    EXPECT_EQ(SweepRunner().jobs(), 3);
    ::unsetenv("SSIM_JOBS");
    EXPECT_GE(SweepRunner().jobs(), 1);
    EXPECT_EQ(SweepRunner(7).jobs(), 7);
}

// ------------------------------------------------------ CompileCache

TEST(CompileCacheTest, HitAccountingUnderConcurrency)
{
    const Workload &w = workloadByName("yacc");
    CompileOptions o = defaultCompileOptions(w);
    CompileCache cache;

    SweepRunner runner(8);
    std::vector<std::string> printed = runner.map<std::string>(
        8, [&](std::size_t) {
            return toString(*cache.compile(w, idealSuperscalar(4), o));
        });

    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 7u);
    EXPECT_EQ(cache.size(), 1u);
    // Every requester schedules its own copy of the one prefix.
    for (const std::string &m : printed)
        EXPECT_EQ(m, printed[0]);
}

TEST(CompileCacheTest, MachineNameDoesNotSplitTheCache)
{
    const Workload &w = workloadByName("whet");
    CompileOptions o = defaultCompileOptions(w);
    MachineConfig a = idealSuperscalar(4);
    MachineConfig b = idealSuperscalar(4);
    b.name = "ss4-relabelled";
    EXPECT_EQ(CompileCache::key(w, a, o), CompileCache::key(w, b, o));

    CompileCache cache;
    cache.compile(w, a, o);
    cache.compile(w, b, o);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(CompileCacheTest, MachinesShareOnePrefix)
{
    // Only the scheduler reads the machine: four scheduling targets
    // share one prefix, yet each module is scheduled for its own.
    const Workload &w = workloadByName("whet");
    CompileOptions o = defaultCompileOptions(w);
    CompileCache cache;
    const auto ss2 = cache.compile(w, idealSuperscalar(2), o);
    cache.compile(w, idealSuperscalar(4), o);   // width differs
    cache.compile(w, superpipelined(4), o);     // degree differs
    const auto cray = cache.compile(w, cray1(), o); // latencies differ
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_NE(toString(*ss2), toString(*cray));

    // The alias level is the scheduler's too.
    CompileOptions alias = o;
    alias.alias = AliasLevel::Conservative;
    cache.compile(w, idealSuperscalar(2), alias);
    EXPECT_EQ(cache.misses(), 1u);

    // Options the prefix reads still miss.
    CompileOptions unrolled = o;
    unrolled.unroll.factor = 2;
    cache.compile(w, idealSuperscalar(2), unrolled);
    CompileOptions careful = o;
    careful.unroll.careful = true;
    cache.compile(w, idealSuperscalar(2), careful);
    CompileOptions temps = o;
    temps.layout.numTemp = 6;
    cache.compile(w, idealSuperscalar(2), temps);
    CompileOptions level = o;
    level.level = OptLevel::Local;
    cache.compile(w, idealSuperscalar(2), level);
    EXPECT_EQ(cache.misses(), 5u);
    EXPECT_EQ(cache.size(), 5u);
}

TEST(CompileCacheTest, MatchesCompileWorkloadChecked)
{
    // The differential: a module from the cache (a shared prefix,
    // copied and scheduled per request, requested in shuffled order
    // on four workers) prints and reports telemetry exactly as a
    // fresh compileWorkloadChecked of the same cell.
    const std::vector<MachineConfig> machines{
        baseMachine(), idealSuperscalar(8), multiTitan(), cray1(),
        superscalarWithClassConflicts(4)};
    std::vector<std::pair<const Workload *, CompileOptions>> configs;
    for (const Workload &w : allWorkloads()) {
        const CompileOptions o = defaultCompileOptions(w);
        CompileOptions none = o;
        none.level = OptLevel::None;
        CompileOptions sched = o;
        sched.level = OptLevel::Sched;
        CompileOptions careful = o;
        careful.unroll.factor = 4;
        careful.unroll.careful = true;
        careful.alias = AliasLevel::Heroic;
        CompileOptions temps = o;
        temps.layout.numTemp = 6;
        for (const CompileOptions &c : {o, none, sched, careful, temps})
            configs.emplace_back(&w, c);
    }
    const std::size_t cells = configs.size() * machines.size();
    std::vector<std::size_t> order(cells);
    for (std::size_t i = 0; i < cells; ++i)
        order[i] = i;
    std::shuffle(order.begin(), order.end(), std::mt19937(20));

    struct Printed
    {
        std::string module;
        std::string telemetry;
    };
    auto print = [](const Module &m, const CompileTelemetry &t) {
        return Printed{toString(m), t.exportStats().dump()};
    };
    CompileCache cache;
    SweepRunner runner(4);
    std::vector<Printed> cached(cells), fresh(cells);
    runner.run(cells, [&](std::size_t k) {
        const std::size_t i = order[k];
        const auto &[w, o] = configs[i / machines.size()];
        const MachineConfig &m = machines[i % machines.size()];
        CompileTelemetry t;
        cached[i] = print(*cache.compile(*w, m, o, &t), t);
        CompileTelemetry u;
        Result<Module> r =
            compileWorkloadChecked(w->source, m, o, &u, w->name);
        ASSERT_TRUE(r.ok()) << r.formatErrors();
        fresh[i] = print(r.value(), u);
    });
    EXPECT_EQ(cache.misses(), configs.size());
    EXPECT_EQ(cache.hits(), cells - configs.size());
    for (std::size_t i = 0; i < cells; ++i) {
        const auto &[w, o] = configs[i / machines.size()];
        const std::string cell = w->name + " on " +
                                 machines[i % machines.size()].name +
                                 " config " +
                                 std::to_string(i / machines.size());
        EXPECT_EQ(cached[i].module, fresh[i].module) << cell;
        EXPECT_EQ(cached[i].telemetry, fresh[i].telemetry) << cell;
    }
}

TEST(CompileCacheTest, HitReturnsTheMissTelemetry)
{
    const Workload &w = workloadByName("yacc");
    CompileOptions o = defaultCompileOptions(w);
    CompileCache cache;
    CompileTelemetry first, second;
    cache.compile(w, idealSuperscalar(4), o, &first);
    cache.compile(w, idealSuperscalar(4), o, &second);
    ASSERT_FALSE(first.phases.empty());
    ASSERT_EQ(first.phases.size(), second.phases.size());
    for (std::size_t i = 0; i < first.phases.size(); ++i) {
        EXPECT_EQ(first.phases[i].name, second.phases[i].name);
        EXPECT_EQ(first.phases[i].instrsAfter,
                  second.phases[i].instrsAfter);
    }
}

// ------------------------------------------------------- keep-going

/** What `ssim ilp|suite --keep-going` runs without --cell-timeout
 *  or --cell-retries: failing cells are quarantined in place. */
constexpr CellPolicy kKeepGoing{.keepGoing = true};

TEST(SweepRunnerTest, KeepGoingCompletesEveryCellPastFailures)
{
    // One throwing cell must not cost any other cell, at any job
    // count, and the recorded error must be identical everywhere.
    auto cell = [](std::size_t i) -> long {
        if (i == 13) {
            throw DiagException(Diag{Severity::Error,
                                     ErrCode::SemaUndefined,
                                     "undefined variable 'zz'", {}});
        }
        if (i == 40) {
            throw TrapException(Trap{ErrCode::TrapDivideByZero, "main",
                                     "integer division by zero"});
        }
        return static_cast<long>(i * 2);
    };
    for (int jobs : {1, 2, 8}) {
        SweepRunner runner(jobs);
        std::vector<CellOutcome<long>> out =
            runner.mapHardened<long>(64, kKeepGoing, cell).cells;
        ASSERT_EQ(out.size(), 64u) << "jobs " << jobs;
        for (std::size_t i = 0; i < out.size(); ++i) {
            if (i == 13) {
                EXPECT_FALSE(out[i].ok());
                EXPECT_EQ(out[i].error.code, ErrCode::SemaUndefined);
                EXPECT_NE(out[i].error.message.find("'zz'"),
                          std::string::npos);
            } else if (i == 40) {
                EXPECT_FALSE(out[i].ok());
                EXPECT_EQ(out[i].error.code,
                          ErrCode::TrapDivideByZero);
            } else {
                EXPECT_TRUE(out[i].ok()) << "cell " << i << " jobs "
                                         << jobs << ": "
                                         << out[i].error.message;
                EXPECT_EQ(out[i].value, static_cast<long>(i * 2));
            }
        }
    }
}

TEST(SweepRunnerTest, KeepGoingErrorReportingIsDeterministic)
{
    auto cell = [](std::size_t i) -> int {
        if (i % 5 == 0)
            throw std::runtime_error("cell " + std::to_string(i));
        return static_cast<int>(i);
    };
    auto sweep = [&](int jobs) {
        return SweepRunner(jobs).mapHardened<int>(32, kKeepGoing, cell)
            .cells;
    };
    std::vector<CellOutcome<int>> serial = sweep(1);
    for (int jobs : {2, 8}) {
        std::vector<CellOutcome<int>> parallel = sweep(jobs);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(parallel[i].ok(), serial[i].ok());
            EXPECT_EQ(parallel[i].error.code, serial[i].error.code);
            EXPECT_EQ(parallel[i].error.message,
                      serial[i].error.message);
            EXPECT_EQ(parallel[i].value, serial[i].value);
        }
    }
}

TEST(SweepRunnerTest, KeepGoingTranslatesUnknownExceptions)
{
    SweepRunner runner(1);
    std::vector<CellOutcome<int>> out =
        runner
            .mapHardened<int>(1, kKeepGoing,
                              [](std::size_t) -> int {
                                  throw std::logic_error("surprise");
                              })
            .cells;
    ASSERT_FALSE(out[0].ok());
    EXPECT_EQ(out[0].error.code, ErrCode::Internal);
    EXPECT_EQ(out[0].error.message, "surprise");
}

TEST(KeepGoingStudyTest, FailingWorkloadIsolatedFromTheSweep)
{
    // An end-to-end keep-going sweep: one malformed workload among
    // valid ones.  The bad cell reports a stable parse error; the
    // good cells produce real speedups; the whole outcome vector is
    // identical at --jobs 1 and --jobs 8.
    Workload bad{"bad", "malformed", "func main( { return 0; }", 0,
                 false, 1};
    auto sweep = [&](int jobs) {
        Study study(jobs);
        auto cell = [&](std::size_t i) {
            if (i == 2)
                return study.speedup(bad, idealSuperscalar(2));
            return study.speedup(workloadByName("yacc"),
                                 idealSuperscalar(
                                     static_cast<int>(i) + 1));
        };
        return study.runner().mapHardened<double>(4, kKeepGoing, cell)
            .cells;
    };
    std::vector<CellOutcome<double>> serial = sweep(1);
    ASSERT_EQ(serial.size(), 4u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        if (i == 2) {
            EXPECT_FALSE(serial[i].ok());
            EXPECT_NE(serial[i].error.message.find("error["),
                      std::string::npos);
        } else {
            EXPECT_TRUE(serial[i].ok()) << serial[i].error.message;
            EXPECT_GE(serial[i].value, 1.0);
        }
    }
    std::vector<CellOutcome<double>> parallel = sweep(8);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].ok(), serial[i].ok());
        EXPECT_EQ(parallel[i].error.code, serial[i].error.code);
        EXPECT_EQ(parallel[i].error.message, serial[i].error.message);
        EXPECT_EQ(parallel[i].value, serial[i].value);
    }
}

// ------------------------------------- CompileCache failure handling

TEST(CompileCacheTest, FailedCompileDoesNotPoisonTheCache)
{
    Workload bad{"bad", "malformed", "func main( { return 0; }", 0,
                 false, 1};
    CompileOptions o;
    CompileCache cache;

    // Every attempt rethrows the failure and is counted; the entry
    // is evicted each time, so each attempt really recompiles.
    EXPECT_THROW(cache.compile(bad, idealSuperscalar(4), o),
                 DiagException);
    EXPECT_EQ(cache.failures(), 1u);
    EXPECT_EQ(cache.size(), 0u);

    EXPECT_THROW(cache.compile(bad, idealSuperscalar(4), o),
                 DiagException);
    EXPECT_EQ(cache.failures(), 2u);
    EXPECT_EQ(cache.misses(), 2u); // retried, not replayed
    EXPECT_EQ(cache.size(), 0u);

    // The failure carries the structured diagnostics.
    try {
        cache.compile(bad, idealSuperscalar(4), o);
        FAIL() << "expected DiagException";
    } catch (const DiagException &e) {
        EXPECT_FALSE(e.diags().empty());
        EXPECT_NE(e.code(), ErrCode::None);
    }

    // A healthy workload still compiles in the same cache.
    const Workload &good = workloadByName("yacc");
    EXPECT_NE(cache.compile(good, idealSuperscalar(4),
                            defaultCompileOptions(good)),
              nullptr);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(CompileCacheTest, ConcurrentRequestersAllSeeTheFailure)
{
    Workload bad{"bad", "malformed", "func main( { return 0; }", 0,
                 false, 1};
    CompileOptions o;
    CompileCache cache;
    SweepRunner runner(8);
    std::atomic<int> failures{0};
    runner.run(8, [&](std::size_t) {
        try {
            cache.compile(bad, idealSuperscalar(4), o);
        } catch (const DiagException &) {
            failures.fetch_add(1);
        }
    });
    EXPECT_EQ(failures.load(), 8);
    EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------- serial == parallel sweeps

TEST(ParallelSweepTest, SpeedupGridBitIdenticalAcrossJobCounts)
{
    const std::vector<std::string> names{"yacc", "whet", "linpack"};
    const std::vector<int> degrees{1, 2, 4};

    auto grid = [&](int jobs) {
        Study study(jobs);
        return study.runner().map<double>(
            names.size() * degrees.size(), [&](std::size_t i) {
                const Workload &w =
                    workloadByName(names[i / degrees.size()]);
                return study.speedup(
                    w,
                    idealSuperscalar(degrees[i % degrees.size()]));
            });
    };

    std::vector<double> serial = grid(1);
    for (int jobs : {2, 8}) {
        std::vector<double> parallel = grid(jobs);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(parallel[i], serial[i]) // exact, not NEAR
                << "cell " << i << " jobs " << jobs;
    }
}

TEST(ParallelSweepTest, TableRenderingBitIdentical)
{
    auto render = [&](int jobs) {
        Study study(jobs);
        const std::vector<std::string> names{"yacc", "whet"};
        std::vector<double> cells = study.runner().map<double>(
            names.size() * 4, [&](std::size_t i) {
                return study.speedup(
                    workloadByName(names[i / 4]),
                    idealSuperscalar(static_cast<int>(i % 4) + 1));
            });
        Table t;
        t.setHeader({"benchmark", "n=1", "n=2", "n=3", "n=4"});
        for (std::size_t wi = 0; wi < names.size(); ++wi) {
            auto &row = t.row();
            row.cell(names[wi]);
            for (std::size_t d = 0; d < 4; ++d)
                row.cell(cells[wi * 4 + d], 2);
        }
        return t.render();
    };
    const std::string serial = render(1);
    EXPECT_EQ(render(2), serial);
    EXPECT_EQ(render(8), serial);
}

TEST(ParallelSweepTest, RunOutcomesAndMergedStatsIdentical)
{
    const std::vector<std::string> names{"yacc", "whet"};
    RunTelemetryOptions telemetry;
    telemetry.collectStats = true;

    auto sweep = [&](int jobs) {
        SweepRunner runner(jobs);
        return runner.map<RunOutcome>(
            names.size(), [&](std::size_t i) {
                const Workload &w = workloadByName(names[i]);
                return runWorkload(w, idealSuperscalar(4),
                                   defaultCompileOptions(w),
                                   telemetry);
            });
    };

    std::vector<RunOutcome> serial = sweep(1);
    std::vector<RunOutcome> parallel = sweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].checksum, parallel[i].checksum);
        EXPECT_EQ(serial[i].instructions, parallel[i].instructions);
        EXPECT_EQ(serial[i].cycles, parallel[i].cycles);
        // The stats tree has no nondeterministic leaf.
        EXPECT_EQ(serial[i].stats.dump(2),
                  parallel[i].stats.dump(2))
            << names[i];
    }
}

// ------------------------------------- RunOutcome::ipc / JSON guards

TEST(RunOutcomeTest, IpcOfZeroCycleRunIsFiniteZero)
{
    RunOutcome out;
    out.instructions = 42;
    out.cycles = 0.0;
    EXPECT_EQ(out.ipc(), 0.0);
    EXPECT_TRUE(std::isfinite(out.ipc()));
}

TEST(JsonNonFiniteTest, NonFiniteDoublesBecomeNull)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(Json(inf).isNull());
    EXPECT_TRUE(Json(-inf).isNull());
    EXPECT_TRUE(Json(nan).isNull());
    EXPECT_EQ(Json(inf).dump(), "null");

    Json doc = Json::object();
    doc.set("ipc", Json(nan));
    doc.set("ok", Json(1.5));
    const std::string text = doc.dump();
    // Round trip: the writer's output must re-parse, and the
    // non-finite member survives as null.
    Json back = Json::parse(text);
    EXPECT_TRUE(back.find("ipc")->isNull());
    EXPECT_EQ(back.find("ok")->asNumber(), 1.5);
    EXPECT_TRUE(back == doc);
}

TEST(JsonTryParseTest, ReportsErrorsWithoutFatal)
{
    Json out;
    std::string error;
    EXPECT_FALSE(Json::tryParse("{\"a\": tru", out, &error));
    EXPECT_NE(error.find("parse error"), std::string::npos);
    EXPECT_FALSE(Json::tryParse("", out));
    EXPECT_FALSE(Json::tryParse("[1, 2", out));

    EXPECT_TRUE(Json::tryParse("[1, 2, 3]", out, &error));
    ASSERT_TRUE(out.isArray());
    EXPECT_EQ(out.size(), 3u);
}

} // namespace
} // namespace ilp
