/**
 * @file
 * Inlining control for the simulator's per-instruction paths.
 *
 * SS_ALWAYS_INLINE forces a hot-path function inline at every direct
 * call.  GCC rejects a direct call to such a function that it cannot
 * inline with a compile error, so a lost inline breaks the build
 * instead of silently costing an out-of-line call per instruction.
 *
 * SS_NOINLINE keeps a function out of its callers, for the one place
 * that must not absorb a forced inline: a recursive frame.
 */

#ifndef SUPERSYM_SUPPORT_INLINE_HH
#define SUPERSYM_SUPPORT_INLINE_HH

#if defined(__GNUC__) || defined(__clang__)
#define SS_ALWAYS_INLINE inline __attribute__((always_inline))
#define SS_NOINLINE __attribute__((noinline))
#else
#define SS_ALWAYS_INLINE inline
#define SS_NOINLINE
#endif

#endif // SUPERSYM_SUPPORT_INLINE_HH
