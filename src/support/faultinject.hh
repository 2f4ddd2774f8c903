/**
 * @file
 * ilp::fault — seeded, deterministic fault injection for sweep
 * survivability testing.
 *
 * A fault plan is a comma-separated list of rules,
 *
 *     SSIM_FAULT=site:kind:rate:seed[,site:kind:rate:seed...]
 *
 * where
 *   site   names an injection point threaded through the pipeline
 *          ("compile", "execute", "cell", "interp", "depgraph"), or
 *          "*" to match every site;
 *   kind   is what happens when the rule fires:
 *            alloc   throw std::bad_alloc (memory pressure) — the
 *                    containment layer maps it to E0903;
 *            trap    throw TrapException with E0409
 *                    trap-transient-fault (a transient worker fault);
 *            exit    _exit(137) the process at the draw whose index
 *                    equals the rule's seed field (kill-mid-sweep);
 *   rate   is the firing probability in [0, 1] ("0.01" = 1%);
 *   seed   is a uint64 mixed into every draw (for "exit": the draw
 *          index that kills the process).
 *
 * Determinism: each site keeps an atomic draw counter; draw i of site
 * s under seed k fires iff splitmix64(k ^ hash(s) ^ i) < rate * 2^64.
 * The *sequence* of draws at a site depends on sweep execution order,
 * so cross-thread firing patterns vary with --jobs — what is
 * deterministic is the decision for a given (site, seed, index)
 * triple, which makes single-threaded tests exactly reproducible and
 * multi-threaded chaos runs statistically controlled.
 *
 * The disabled fast path (no SSIM_FAULT, no configure()) is one
 * relaxed atomic load per site visit.  Every injected fault is
 * counted (injectedCount()).
 */

#ifndef SUPERSYM_SUPPORT_FAULTINJECT_HH
#define SUPERSYM_SUPPORT_FAULTINJECT_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace ilp::fault {

/** True when at least one rule is armed (one relaxed load). */
bool enabled();

/**
 * Visit an injection site: evaluates every armed rule matching
 * @p site and throws (or exits) if one fires.
 * No-op when injection is disabled.  The containment guarantee is
 * that everything thrown here is an exception the sweep layer
 * already classifies: std::bad_alloc -> E0903, TrapException(E0409).
 */
void maybeInject(const char *site);

/**
 * (Re)arm injection from a plan string; replaces any existing plan.
 * Returns false (and disarms) when the spec is malformed.  Passing
 * an empty string disarms.  Tests use this instead of the
 * environment variable.
 */
bool configure(const std::string &spec);

/** Disarm all rules and zero the draw counters. */
void reset();

/** Total faults injected so far (for tests). */
std::uint64_t injectedCount();

/** Arm from $SSIM_FAULT if set; called once from the CLI edge. */
void configureFromEnv();

} // namespace ilp::fault

#endif // SUPERSYM_SUPPORT_FAULTINJECT_HH
