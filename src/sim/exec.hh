/**
 * @file
 * The production executor: how every study, sweep and CLI run
 * functionally executes a module.
 *
 * There is one: the bytecode VM (sim/bytecode.hh), which callers
 * time through its fused runTimed.  The IR-walk Interpreter
 * (sim/interp.hh) is not an alternative executor but the oracle the
 * VM is differentially tested against (tests/bytecode_test.cc,
 * tools/fuzz/fuzz_mt_exec.cc); only tests and benchmarks construct
 * it.
 *
 * An Executor owns its lowered image and its data memory and is
 * reusable across runs, including after a trap.  It is not
 * thread-safe; sweep workers each build their own.
 */

#ifndef SUPERSYM_SIM_EXEC_HH
#define SUPERSYM_SIM_EXEC_HH

#include <memory>

#include "ir/module.hh"
#include "sim/bytecode.hh"

namespace ilp {

/** The one production executor. */
using Executor = BytecodeVM;

/**
 * Lower `module` and build an executor over it.  Throws
 * DiagException E0502 when a function cannot be lowered (see
 * lowerModule); there is no fallback executor.
 */
inline std::unique_ptr<Executor>
makeExecutor(const Module &module, InterpOptions options = {})
{
    return std::make_unique<Executor>(lowerModule(module), options);
}

} // namespace ilp

#endif // SUPERSYM_SIM_EXEC_HH
