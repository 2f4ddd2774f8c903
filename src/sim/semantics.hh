/**
 * @file
 * The per-opcode operational semantics of the functional simulator,
 * hoisted out of the IR-walk interpreter so the interpreter and the
 * bytecode VM (sim/bytecode.hh) execute from one source of truth.
 *
 * Everything observable about executing one instruction lives here:
 * the value computed for each ALU/FP opcode, the exact trap records
 * raised for workload faults (divide by zero, fuel exhaustion, call
 * depth, stack overflow, bad jumps, missing entry), and the shared
 * watchdog/fault-injection poll both backends run every
 * cancel::kDeadlinePollInterval dynamic instructions.  A divergence
 * between the two backends is, by construction, a bookkeeping bug,
 * not a semantics bug — the differential suite (tests/bytecode_test)
 * then pins the bookkeeping.
 *
 * All values are 64-bit bit patterns: integers are two's-complement
 * int64, floats are IEEE double, moved around as std::uint64_t and
 * reinterpreted at the operation.
 */

#ifndef SUPERSYM_SIM_SEMANTICS_HH
#define SUPERSYM_SIM_SEMANTICS_HH

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "isa/isa.hh"
#include "sim/cancel.hh"
#include "sim/trap.hh"
#include "support/faultinject.hh"
#include "support/inline.hh"

namespace ilp::sem {

/** Maximum interpreter/VM call depth before TrapCallDepthExceeded. */
inline constexpr int kMaxCallDepth = 4096;

/**
 * The fault-injection site both functional backends visit from their
 * poll point.  One shared name keeps the seeded draw sequence — and
 * therefore every chaos differential — identical whichever backend
 * executes the workload.
 */
inline constexpr const char *kFaultSite = "interp";

// ------------------------------------------------- value reinterpret

inline std::int64_t
asInt(std::uint64_t bits)
{
    return static_cast<std::int64_t>(bits);
}

inline std::uint64_t
fromInt(std::int64_t v)
{
    return static_cast<std::uint64_t>(v);
}

inline double
asF(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

inline std::uint64_t
fromF(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

// ------------------------------------------------------ shared traps
//
// Message text is part of the observable artifact contract: trap
// records must be byte-identical across backends, so the strings are
// built in exactly one place.

[[noreturn]] inline void
trapDivideByZero(bool isRemainder)
{
    throw TrapException(
        Trap{ErrCode::TrapDivideByZero, "",
             isRemainder ? "integer remainder by zero"
                         : "integer division by zero"});
}

/** @param executed The dynamic count *including* the instruction
 *  that blew the budget (the interpreter increments first). */
[[noreturn]] inline void
trapFuelExhausted(std::uint64_t executed)
{
    throw TrapException(
        Trap{ErrCode::TrapFuelExhausted, "",
             "interpreter fuel exhausted after " +
                 std::to_string(executed) +
                 " instructions — runaway workload?"});
}

[[noreturn]] inline void
trapCallDepthExceeded(const std::string &function)
{
    throw TrapException(
        Trap{ErrCode::TrapCallDepthExceeded, function,
             "call depth exceeded (" +
                 std::to_string(kMaxCallDepth) + ")"});
}

[[noreturn]] inline void
trapStackOverflow(const std::string &function)
{
    throw TrapException(
        Trap{ErrCode::TrapStackOverflow, function, "stack overflow"});
}

[[noreturn]] inline void
trapBadJump(const std::string &function, std::int64_t block)
{
    throw TrapException(
        Trap{ErrCode::TrapBadJump, function,
             "jump to invalid block " + std::to_string(block)});
}

[[noreturn]] inline void
trapNoEntry(const std::string &entry)
{
    throw TrapException(Trap{ErrCode::TrapNoEntry, "",
                             "no entry function '" + entry + "'"});
}

[[noreturn]] inline void
trapEntryTakesArgs(const std::string &entry)
{
    throw TrapException(
        Trap{ErrCode::TrapNoEntry, "",
             "entry function '" + entry +
                 "' must take no arguments"});
}

// ------------------------------------------------- watchdog cadence

/**
 * The amortized per-instruction poll both backends run *after*
 * bumping their dynamic-instruction counter: one branch per
 * instruction, and every cancel::kDeadlinePollInterval instructions
 * the cooperative cell deadline plus the shared fault-injection
 * site.  Synthetic calling-convention moves bump the counter without
 * polling (they are bookkeeping, not fetched instructions) — both
 * backends agree on that, which keeps the poll *points*, and so the
 * E0410 trap instants and fault draws, identical.
 */
inline void
pollPoint(std::uint64_t executed)
{
    if ((executed & cancel::kDeadlinePollMask) == 0) {
        cancel::pollDeadline();
        if (fault::enabled())
            fault::maybeInject(kFaultSite);
    }
}

// ------------------------------------------- ALU / FP op evaluation
//
// One force-inlined function per computational opcode family.  `a` is
// the first source's bits, `b` the second source's bits (or the sign-
// extended immediate, already converted by the caller).  Memory,
// control and call opcodes are structural and stay in the backends.

SS_ALWAYS_INLINE std::uint64_t
evalBinary(Opcode op, std::uint64_t a, std::uint64_t b)
{
    switch (op) {
      case Opcode::AddI: return fromInt(asInt(a) + asInt(b));
      case Opcode::SubI: return fromInt(asInt(a) - asInt(b));
      case Opcode::MulI: return fromInt(asInt(a) * asInt(b));
      case Opcode::DivI: {
        const std::int64_t d = asInt(b);
        if (d == 0)
            trapDivideByZero(false);
        return fromInt(asInt(a) / d);
      }
      case Opcode::RemI: {
        const std::int64_t d = asInt(b);
        if (d == 0)
            trapDivideByZero(true);
        return fromInt(asInt(a) % d);
      }
      case Opcode::CmpEqI: return asInt(a) == asInt(b) ? 1 : 0;
      case Opcode::CmpNeI: return asInt(a) != asInt(b) ? 1 : 0;
      case Opcode::CmpLtI: return asInt(a) < asInt(b) ? 1 : 0;
      case Opcode::CmpLeI: return asInt(a) <= asInt(b) ? 1 : 0;
      case Opcode::CmpGtI: return asInt(a) > asInt(b) ? 1 : 0;
      case Opcode::CmpGeI: return asInt(a) >= asInt(b) ? 1 : 0;
      case Opcode::AndI: return a & b;
      case Opcode::OrI: return a | b;
      case Opcode::XorI: return a ^ b;
      case Opcode::ShlI:
        return fromInt(asInt(a) << (asInt(b) & 63));
      case Opcode::ShrAI:
        return fromInt(asInt(a) >> (asInt(b) & 63));
      case Opcode::ShrLI: return a >> (asInt(b) & 63);
      case Opcode::AddF: return fromF(asF(a) + asF(b));
      case Opcode::SubF: return fromF(asF(a) - asF(b));
      case Opcode::MulF: return fromF(asF(a) * asF(b));
      case Opcode::DivF: return fromF(asF(a) / asF(b));
      case Opcode::CmpEqF: return asF(a) == asF(b) ? 1 : 0;
      case Opcode::CmpNeF: return asF(a) != asF(b) ? 1 : 0;
      case Opcode::CmpLtF: return asF(a) < asF(b) ? 1 : 0;
      case Opcode::CmpLeF: return asF(a) <= asF(b) ? 1 : 0;
      case Opcode::CmpGtF: return asF(a) > asF(b) ? 1 : 0;
      case Opcode::CmpGeF: return asF(a) >= asF(b) ? 1 : 0;
      default:
        break;
    }
    SS_PANIC("evalBinary: not a binary opcode: ", opcodeName(op));
}

SS_ALWAYS_INLINE std::uint64_t
evalUnary(Opcode op, std::uint64_t a)
{
    switch (op) {
      case Opcode::NotI: return ~a;
      case Opcode::MovI:
      case Opcode::MovF: return a;
      case Opcode::NegF: return fromF(-asF(a));
      case Opcode::AbsF: return fromF(std::fabs(asF(a)));
      case Opcode::CvtIF:
        return fromF(static_cast<double>(asInt(a)));
      case Opcode::CvtFI:
        return fromInt(static_cast<std::int64_t>(asF(a)));
      default:
        break;
    }
    SS_PANIC("evalUnary: not a unary opcode: ", opcodeName(op));
}

} // namespace ilp::sem

#endif // SUPERSYM_SIM_SEMANTICS_HH
