/**
 * @file
 * Cooperative per-cell deadlines (the sweep watchdog).
 *
 * A runaway cell — a pathological unroll factor, a near-infinite MT
 * loop that stays inside its fuel, an adversarial machine spec — must
 * not stall a whole sweep.  Preemption is off the table (cells share
 * caches and allocate), so cancellation is cooperative: the hardened
 * sweep layer arms a steady-clock deadline on the worker thread
 * (ScopedCellDeadline), and the execution hot loops — the IR-walk
 * interpreter and the bytecode VM — poll it every
 * kDeadlinePollInterval executed instructions (one shared, tested
 * constant, below).
 *
 * An expired deadline raises TrapException(E0410
 * trap-deadline-exceeded) — a *permanent* error class: the simulator
 * is deterministic, so a cell that blew its budget once will blow it
 * again, and retrying would only double the damage.  The hardened
 * runner quarantines such cells instead.
 *
 * The trap message carries the configured budget, never the elapsed
 * time, so a timed-out cell reports identically at any job count.
 */

#ifndef SUPERSYM_SIM_CANCEL_HH
#define SUPERSYM_SIM_CANCEL_HH

#include <chrono>
#include <cstdint>

namespace ilp::cancel {

/**
 * Deadline-poll cadence for every functional-execution hot loop: the
 * IR-walk interpreter and the bytecode VM both poll the cooperative
 * deadline (and the fault-injection site) once per this many dynamic
 * instructions.  One shared, tested value
 * — the cadence used to be duplicated per poll site, which let the
 * loops drift apart.  Must stay a power of two: the loops use
 * `(executed & kDeadlinePollMask) == 0`, one AND and one predictable
 * branch per instruction.
 */
inline constexpr std::uint64_t kDeadlinePollInterval = 4096;
inline constexpr std::uint64_t kDeadlinePollMask =
    kDeadlinePollInterval - 1;
static_assert((kDeadlinePollInterval &
               (kDeadlinePollInterval - 1)) == 0,
              "poll cadence must be a power of two (mask test)");

/** True when the calling thread has an armed deadline. */
bool deadlineArmed();

/**
 * Throw TrapException(TrapDeadlineExceeded) if the calling thread's
 * deadline has passed; no-op (one thread-local load) when no deadline
 * is armed.  Called from the VM's and the interpreter's poll points.
 */
void pollDeadline();

/**
 * Arm a deadline of `seconds` from now on the calling thread for the
 * lifetime of the object; seconds <= 0 arms nothing.  Nests: the
 * previous deadline (if any) is restored on destruction.
 */
class ScopedCellDeadline
{
  public:
    explicit ScopedCellDeadline(double seconds);
    ~ScopedCellDeadline();

    ScopedCellDeadline(const ScopedCellDeadline &) = delete;
    ScopedCellDeadline &operator=(const ScopedCellDeadline &) = delete;

  private:
    bool prev_armed_;
    std::chrono::steady_clock::time_point prev_at_;
    double prev_seconds_;
};

} // namespace ilp::cancel

#endif // SUPERSYM_SIM_CANCEL_HH
