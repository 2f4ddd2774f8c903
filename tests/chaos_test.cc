/**
 * Chaos tests for sweep survivability (docs/robustness.md): the
 * hardened runner's retry/quarantine/timeout semantics, the
 * watchdog's deterministic E0410 trap, the chaos differential (a
 * faulted sweep with retries equals a clean sweep, value for value,
 * at any job count), workload-trap containment under keep-going, and
 * mapHardened's retry/timeout/quarantine totals.
 */

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/machine/models.hh"
#include "core/study/experiment.hh"
#include "core/study/sweep.hh"
#include "sim/cancel.hh"
#include "sim/trap.hh"
#include "support/faultinject.hh"

namespace ilp {
namespace {

Diag
transientDiag()
{
    return Diag{Severity::Error, ErrCode::TrapTransientFault,
                "synthetic transient fault", {}};
}

/** A small but non-trivial MT kernel for sweep-level tests: big
 *  enough (> 4096 dynamic instructions) that the interpreter's
 *  deadline poll point is guaranteed to run. */
const char *const kKernel = R"(
var int a[1024];

func main() : int {
    var int i;
    var int s = 0;
    for (i = 0; i < 1024; i = i + 1) {
        a[i] = i * 3;
    }
    for (i = 0; i < 1024; i = i + 1) {
        s = s + a[i] * a[i];
    }
    return s;
}
)";

const char *const kDivByZero = R"(
var int zero;
func main() : int { return 7 / zero; }
)";

Workload
kernelWorkload()
{
    return Workload{"chaos_kernel", "chaos test kernel", kKernel, 0,
                    false, 1};
}

class ChaosTest : public ::testing::Test
{
  protected:
    void SetUp() override { fault::reset(); }
    void TearDown() override { fault::reset(); }
};

// ------------------------------------------------- mapHardened core

TEST_F(ChaosTest, TransientFailuresRetryUntilSuccess)
{
    SweepRunner runner(1);
    CellPolicy policy;
    policy.maxRetries = 5;
    std::atomic<int> calls{0};
    HardenedSweep<int> hs = runner.mapHardened<int>(
        1, policy, [&](std::size_t) {
            if (calls.fetch_add(1) < 2)
                throw DiagException(transientDiag());
            return 42;
        });
    ASSERT_EQ(hs.cells.size(), 1u);
    EXPECT_TRUE(hs.cells[0].ok());
    EXPECT_EQ(hs.cells[0].value, 42);
    EXPECT_EQ(hs.cells[0].attempts, 3);
    EXPECT_FALSE(hs.cells[0].quarantined);
    EXPECT_EQ(hs.totals.retries, 2u);
    EXPECT_EQ(hs.totals.quarantined, 0u);
}

TEST_F(ChaosTest, BadAllocClassifiesAsResourceExhaustedAndRetries)
{
    SweepRunner runner(1);
    CellPolicy policy;
    policy.maxRetries = 3;
    int calls = 0;
    HardenedSweep<int> hs = runner.mapHardened<int>(
        1, policy, [&](std::size_t) -> int {
            if (calls++ == 0)
                throw std::bad_alloc();
            return 7;
        });
    EXPECT_TRUE(hs.cells[0].ok());
    EXPECT_EQ(hs.cells[0].attempts, 2);
    EXPECT_EQ(hs.totals.retries, 1u);
}

TEST_F(ChaosTest, PermanentFailuresAreNeverRetried)
{
    SweepRunner runner(1);
    CellPolicy policy;
    policy.maxRetries = 5;
    policy.keepGoing = true;
    int calls = 0;
    HardenedSweep<int> hs = runner.mapHardened<int>(
        1, policy, [&](std::size_t) -> int {
            ++calls;
            throw TrapException(Trap{ErrCode::TrapDivideByZero,
                                     "main", "division by zero", 3});
        });
    EXPECT_EQ(calls, 1); // permanent: one attempt, no retries
    EXPECT_FALSE(hs.cells[0].ok());
    EXPECT_TRUE(hs.cells[0].quarantined);
    EXPECT_EQ(hs.cells[0].error.code, ErrCode::TrapDivideByZero);
    EXPECT_EQ(hs.totals.retries, 0u);
    EXPECT_EQ(hs.totals.quarantined, 1u);
}

TEST_F(ChaosTest, RetryExhaustionQuarantines)
{
    SweepRunner runner(1);
    CellPolicy policy;
    policy.maxRetries = 2;
    policy.keepGoing = true;
    int calls = 0;
    HardenedSweep<int> hs = runner.mapHardened<int>(
        1, policy, [&](std::size_t) -> int {
            ++calls;
            throw DiagException(transientDiag());
        });
    EXPECT_EQ(calls, 3); // first try + 2 retries
    EXPECT_TRUE(hs.cells[0].quarantined);
    EXPECT_EQ(hs.cells[0].attempts, 3);
    EXPECT_EQ(hs.totals.retries, 2u);
    EXPECT_EQ(hs.totals.quarantined, 1u);
}

TEST_F(ChaosTest, QuarantineAbortsTheSweepWithoutKeepGoing)
{
    SweepRunner runner(1);
    CellPolicy policy; // keepGoing = false
    EXPECT_THROW(runner.mapHardened<int>(
                     1, policy,
                     [&](std::size_t) -> int {
                         throw DiagException(transientDiag());
                     }),
                 DiagException);
}

TEST_F(ChaosTest, HardenedOutcomeIsDeterministicAcrossJobCounts)
{
    // Cells 3 and 11 fail transiently twice each, cell 7
    // permanently; everything else succeeds first try.  The merged
    // outcome must be identical at any job count.
    auto sweep = [&](int jobs) {
        std::vector<std::atomic<int>> calls(16);
        SweepRunner runner(jobs);
        CellPolicy policy;
        policy.maxRetries = 4;
        policy.keepGoing = true;
        return runner.mapHardened<int>(16, policy, [&](std::size_t i) {
            const int call = calls[i].fetch_add(1);
            if ((i == 3 || i == 11) && call < 2)
                throw DiagException(transientDiag());
            if (i == 7)
                throw TrapException(Trap{ErrCode::TrapDivideByZero,
                                         "main", "division by zero",
                                         3});
            return static_cast<int>(i * i);
        });
    };
    const HardenedSweep<int> serial = sweep(1);
    for (int jobs : {2, 8}) {
        const HardenedSweep<int> parallel = sweep(jobs);
        ASSERT_EQ(parallel.cells.size(), serial.cells.size());
        for (std::size_t i = 0; i < serial.cells.size(); ++i) {
            EXPECT_EQ(parallel.cells[i].value, serial.cells[i].value)
                << "cell " << i << " jobs " << jobs;
            EXPECT_EQ(parallel.cells[i].error.code,
                      serial.cells[i].error.code);
            EXPECT_EQ(parallel.cells[i].attempts,
                      serial.cells[i].attempts);
            EXPECT_EQ(parallel.cells[i].quarantined,
                      serial.cells[i].quarantined);
        }
        EXPECT_EQ(parallel.totals.retries, serial.totals.retries);
        EXPECT_EQ(parallel.totals.quarantined,
                  serial.totals.quarantined);
    }
}

// ------------------------------------------------------- watchdog

TEST_F(ChaosTest, WatchdogDeadlineTrapsWithDeterministicMessage)
{
    SweepRunner runner(1);
    CellPolicy policy;
    policy.timeoutSeconds = 0.001;
    policy.maxRetries = 5; // must NOT apply: deadlines are permanent
    policy.keepGoing = true;
    int calls = 0;
    HardenedSweep<int> hs = runner.mapHardened<int>(
        1, policy, [&](std::size_t) -> int {
            ++calls;
            // Simulate a runaway cell hitting a poll point late.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
            cancel::pollDeadline();
            return 1;
        });
    EXPECT_EQ(calls, 1);
    EXPECT_FALSE(hs.cells[0].ok());
    EXPECT_TRUE(hs.cells[0].quarantined);
    EXPECT_EQ(hs.cells[0].error.code,
              ErrCode::TrapDeadlineExceeded);
    // The message carries the configured budget, not elapsed time:
    // identical at any job count.
    EXPECT_NE(hs.cells[0].error.message.find(
                  "cell deadline of 0.001 s exceeded"),
              std::string::npos)
        << hs.cells[0].error.message;
    EXPECT_EQ(hs.totals.timeouts, 1u);
    EXPECT_EQ(hs.totals.retries, 0u);
    EXPECT_EQ(hs.totals.quarantined, 1u);
}

TEST_F(ChaosTest, DeadlineIsScopedToTheCell)
{
    {
        cancel::ScopedCellDeadline deadline(0.0); // <= 0: unarmed
        EXPECT_FALSE(cancel::deadlineArmed());
    }
    {
        cancel::ScopedCellDeadline outer(100.0);
        EXPECT_TRUE(cancel::deadlineArmed());
        {
            cancel::ScopedCellDeadline inner(200.0);
            EXPECT_TRUE(cancel::deadlineArmed());
        }
        EXPECT_TRUE(cancel::deadlineArmed()); // outer restored
    }
    EXPECT_FALSE(cancel::deadlineArmed());
    EXPECT_NO_THROW(cancel::pollDeadline());
}

TEST_F(ChaosTest, InterpreterPollsTheDeadline)
{
    // A real end-to-end timeout: an interpreter-bound cell under a
    // microscopic budget traps E0410 out of the interpreter's poll
    // point rather than hanging.
    Study study(1);
    CellPolicy policy;
    policy.timeoutSeconds = 1e-9;
    policy.keepGoing = true;
    const Workload w = kernelWorkload();
    HardenedSweep<double> hs =
        study.runner().mapHardened<double>(
            1, policy, [&](std::size_t) {
                return study.speedup(w, idealSuperscalar(4),
                                     defaultCompileOptions(w));
            });
    ASSERT_FALSE(hs.cells[0].ok());
    EXPECT_EQ(hs.cells[0].error.code,
              ErrCode::TrapDeadlineExceeded);
    EXPECT_EQ(hs.totals.timeouts, 1u);
}

// ------------------------------------------------ chaos differential

/** The tentpole invariant: a sweep under injected faults, with
 *  enough retries, produces values identical to a fault-free sweep
 *  — at any job count. */
TEST_F(ChaosTest, FaultedSweepEqualsCleanSweep)
{
    const Workload w = kernelWorkload();
    auto sweep = [&](int jobs) {
        Study study(jobs);
        CellPolicy policy;
        policy.maxRetries = 10;
        return study.runner().mapHardened<double>(
            8, policy, [&](std::size_t i) {
                return study.speedup(
                    w, idealSuperscalar(static_cast<int>(i) + 1),
                    defaultCompileOptions(w));
            });
    };

    fault::reset();
    const HardenedSweep<double> clean = sweep(1);
    ASSERT_EQ(clean.totals.retries, 0u);

    ASSERT_TRUE(fault::configure(
        "cell:trap:0.25:11,compile:alloc:0.1:12,"
        "execute:trap:0.2:13,interp:trap:0.001:14"));
    for (int jobs : {1, 8}) {
        const HardenedSweep<double> faulty = sweep(jobs);
        ASSERT_EQ(faulty.cells.size(), clean.cells.size());
        for (std::size_t i = 0; i < clean.cells.size(); ++i) {
            EXPECT_TRUE(faulty.cells[i].ok())
                << "cell " << i << ": "
                << faulty.cells[i].error.message;
            // Byte-identical values: retried cells recompute the
            // same deterministic computation.
            EXPECT_EQ(faulty.cells[i].value, clean.cells[i].value)
                << "cell " << i << " jobs " << jobs;
        }
    }
    EXPECT_GT(fault::injectedCount(), 0u);
}

// ------------------------------------------ workload-trap containment

/** A genuinely trapping workload (division by zero) under keep-going
 *  surfaces as a stable E0401 cell error — identically at jobs 1, 2,
 *  and 8. */
TEST_F(ChaosTest, WorkloadTrapContainedAtAnyJobCount)
{
    const Workload bad{"chaos_div0", "divides by zero", kDivByZero,
                       0, false, 1};
    auto sweep = [&](int jobs) {
        Study study(jobs);
        CellPolicy policy;
        policy.keepGoing = true;
        policy.maxRetries = 3; // must not retry a genuine trap
        return study.runner().mapHardened<double>(
            4, policy, [&](std::size_t i) {
                return study.speedup(
                    bad, idealSuperscalar(static_cast<int>(i) + 1),
                    defaultCompileOptions(bad));
            });
    };
    const HardenedSweep<double> serial = sweep(1);
    for (const CellOutcome<double> &c : serial.cells) {
        EXPECT_FALSE(c.ok());
        EXPECT_EQ(c.error.code, ErrCode::TrapDivideByZero);
        EXPECT_TRUE(c.quarantined);
        EXPECT_EQ(c.attempts, 1); // permanent: no retries burned
    }
    EXPECT_EQ(serial.totals.quarantined, 4u);
    EXPECT_EQ(serial.totals.retries, 0u);
    for (int jobs : {2, 8}) {
        const HardenedSweep<double> parallel = sweep(jobs);
        for (std::size_t i = 0; i < 4; ++i) {
            EXPECT_EQ(parallel.cells[i].error.code,
                      serial.cells[i].error.code)
                << "jobs " << jobs;
            EXPECT_EQ(parallel.cells[i].error.message,
                      serial.cells[i].error.message)
                << "jobs " << jobs;
        }
    }
}

/** The "execute" site fires inside runOnMachine: every timing run
 *  draws, an injected fault is transient, and retried cells recover. */
TEST_F(ChaosTest, InjectedExecutionFaultsRetryToSuccess)
{
    const Workload w = kernelWorkload();
    ASSERT_TRUE(fault::configure("execute:trap:0.6:31"));
    Study study(1);
    CellPolicy policy;
    policy.maxRetries = 20;
    HardenedSweep<double> hs = study.runner().mapHardened<double>(
        4, policy, [&](std::size_t i) {
            return study.speedup(
                w, idealSuperscalar(static_cast<int>(i) + 1),
                defaultCompileOptions(w));
        });
    for (const CellOutcome<double> &c : hs.cells)
        EXPECT_TRUE(c.ok()) << c.error.message;
    EXPECT_GT(fault::injectedCount(), 0u);
    EXPECT_EQ(hs.totals.retries, fault::injectedCount());
}

/** The "depgraph" site fires at the start of every graph build as a
 *  transient fault; the next build, unfaulted, succeeds. */
TEST_F(ChaosTest, InjectedDepGraphFaultIsTransient)
{
    const Workload w = kernelWorkload();
    Study study(1);
    ASSERT_TRUE(fault::configure("depgraph:trap:1:41"));
    try {
        study.dependenceGraph(w, idealSuperscalar(4),
                              defaultCompileOptions(w));
        FAIL() << "expected an injected fault";
    } catch (const DiagException &e) {
        EXPECT_EQ(e.code(), ErrCode::TrapTransientFault);
    }
    fault::reset();
    EXPECT_FALSE(study
                     .dependenceGraph(w, idealSuperscalar(4),
                                      defaultCompileOptions(w))
                     .empty());
}

// ---------------------------------------------- hardening totals

TEST_F(ChaosTest, TotalsAgreeWithPerCellOutcomes)
{
    SweepRunner runner(4);
    CellPolicy policy;
    policy.maxRetries = 2;
    policy.keepGoing = true;
    std::vector<std::atomic<int>> calls(12);
    HardenedSweep<int> hs = runner.mapHardened<int>(
        12, policy, [&](std::size_t i) -> int {
            const int call = calls[i].fetch_add(1);
            if (i % 4 == 1 && call < 1)
                throw DiagException(transientDiag()); // one retry
            if (i % 4 == 2)
                throw DiagException(transientDiag()); // exhausts
            return static_cast<int>(i);
        });
    // Cells 1/5/9 retry once each; cells 2/6/10 burn both retries
    // before quarantine; no attempt hits a deadline.
    EXPECT_EQ(hs.totals.retries, 9u);
    EXPECT_EQ(hs.totals.quarantined, 3u);
    EXPECT_EQ(hs.totals.timeouts, 0u);
    std::uint64_t retried = 0;
    std::uint64_t isolated = 0;
    for (const CellOutcome<int> &c : hs.cells) {
        retried += static_cast<std::uint64_t>(c.attempts - 1);
        isolated += c.quarantined ? 1 : 0;
    }
    EXPECT_EQ(hs.totals.retries, retried);
    EXPECT_EQ(hs.totals.quarantined, isolated);
}

} // namespace
} // namespace ilp
