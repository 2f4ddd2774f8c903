#!/bin/sh
# `ssim run` on a program that divides by zero: exit 1, nothing on
# stdout, and the trap's stable code on stderr.  The message's
# "after N instructions" depends on the schedule, so it is not pinned.
#
# usage: run_trap_test.sh /path/to/ssim
set -eu

SSIM="$1"
TMP="${TMPDIR:-/tmp}/run_trap_$$"
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

fail() {
    echo "run_trap_test: $1" >&2
    exit 1
}

cat > "$TMP/div0.mt" <<'MT'
var int zero;
func main() : int { return 7 / zero; }
MT

rc=0
"$SSIM" run "$TMP/div0.mt" --machine ss4 > "$TMP/out" 2> "$TMP/err" \
    || rc=$?
[ "$rc" -eq 1 ] || fail "expected exit 1, got $rc"
[ ! -s "$TMP/out" ] || fail "expected no stdout, got: $(cat "$TMP/out")"
grep -q 'trap\[E0401\]' "$TMP/err" \
    || fail "expected trap[E0401] on stderr, got: $(cat "$TMP/err")"

echo "run_trap_test: ok"
