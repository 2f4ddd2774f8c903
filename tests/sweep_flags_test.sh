#!/bin/sh
# `ssim ilp` and `ssim suite` refuse the flags their sweeps would
# otherwise ignore: each refused flag exits 2 with "ssim: CMD does not
# take FLAG" on stderr, prints nothing on stdout and writes no file
# (not the --profile-json file, nor the --stats-json file every call
# also asks for).  A control run without the flag writes its file.
#
# usage: sweep_flags_test.sh /path/to/ssim /path/to/dotprod.mt
set -eu

SSIM="$1"
MT="$2"
TMP="${TMPDIR:-/tmp}/sweep_flags_$$"
mkdir -p "$TMP/work"
trap 'rm -rf "$TMP"' EXIT

fail() {
    echo "sweep_flags_test: $1" >&2
    exit 1
}

# refuse CMD FLAG [ARGS...]: run CMD with FLAG ARGS in an empty
# directory and expect the refusal.
refuse() {
    cmd="$1"
    flag="$2"
    shift 2
    if [ "$cmd" = ilp ]; then
        set -- "$MT" --jobs 1 --stats-json s.json "$flag" "$@"
    else
        set -- --machine ss4 --jobs 1 --stats-json s.json "$flag" "$@"
    fi
    rc=0
    (cd "$TMP/work" && "$SSIM" "$cmd" "$@") > "$TMP/out" 2> "$TMP/err" \
        || rc=$?
    [ "$rc" -eq 2 ] || fail "$cmd $flag: expected exit 2, got $rc"
    [ ! -s "$TMP/out" ] \
        || fail "$cmd $flag: expected no stdout, got: $(cat "$TMP/out")"
    grep -qxF "ssim: $cmd does not take $flag" "$TMP/err" \
        || fail "$cmd $flag: expected a usage error naming $flag," \
                "got: $(cat "$TMP/err")"
    [ -z "$(ls -A "$TMP/work")" ] \
        || fail "$cmd $flag: wrote $(ls -A "$TMP/work")"
}

for cmd in ilp suite; do
    refuse "$cmd" --profile
    refuse "$cmd" --profile-json p.json
    refuse "$cmd" --profile-top 5
    refuse "$cmd" --diff ss2 ss4
    refuse "$cmd" --slack
    refuse "$cmd" --top 3
    refuse "$cmd" --trace-limit 10
done
refuse ilp --machine cray1
refuse ilp --stats

# The control: the same ilp call without a refused flag runs the sweep
# and writes its --stats-json file, so an empty directory above means
# the flag stopped the sweep.
(cd "$TMP/work" && "$SSIM" ilp "$MT" --jobs 1 --stats-json s.json) \
    > /dev/null || fail "control run failed"
[ -s "$TMP/work/s.json" ] || fail "control run wrote no s.json"

echo "sweep_flags_test: ok"
