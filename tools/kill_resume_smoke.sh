#!/usr/bin/env bash
# Kill-resume smoke test.
#
# For each bench driver given on the command line:
#   1. run it cleanly (no journal) and keep the report,
#   2. run it with --journal (a result-store directory), SIGKILL it
#      mid-flight (the harshest possible interruption: no signal
#      handler, no drain, no flush),
#   3. resume the sweep with --resume at a DIFFERENT --jobs count,
#   4. require the resumed report to be byte-identical to the clean
#      one (info:/warn: progress lines excluded -- the resumed run
#      legitimately reports how many points it reused).
#
# Exercises the whole crash-safety stack end to end: atomic store
# entry writes (a SIGKILL mid-write must leave a loadable store),
# keyed lookup of finished points, and schedule-independent stat
# merging.
#
# The clean run uses the legacy tick engine while the journaled and
# resumed runs use the event engine (MOPAC_SIM_ENGINE), so the final
# byte-identical report diff doubles as an end-to-end differential
# test of the two run-loop engines across a crash/resume cycle.
#
# Usage: kill_resume_smoke.sh <bench-binary> [<bench-binary> ...]
# Env:   MOPAC_SIM_SCALE  simulation downscale (default 0.03)
#        KILL_AFTER       seconds before the SIGKILL (default 2)

set -u

if [ "$#" -lt 1 ]; then
    echo "usage: $0 <bench-binary> [<bench-binary> ...]" >&2
    exit 2
fi

export MOPAC_SIM_SCALE="${MOPAC_SIM_SCALE:-0.03}"
KILL_AFTER="${KILL_AFTER:-2}"

workdir=$(mktemp -d) || { echo "FAIL: mktemp -d failed" >&2; exit 1; }
sweep_pid=""
cleanup() {
    [ -n "$sweep_pid" ] && kill -9 "$sweep_pid" 2>/dev/null
    rm -rf "$workdir"
}
# INT/TERM too: an interrupted run must not leak the backgrounded
# journaled sweep or the temp dir.
trap cleanup EXIT INT TERM

# Progress lines (info:/warn:) differ by construction between a clean
# and a resumed run; the result tables must not.
strip_progress() {
    grep -v -e '^info:' -e '^warn:' "$1"
}

status=0
for bin in "$@"; do
    name=$(basename "$bin")
    journal="$workdir/$name.journal"
    echo "== $name (scale $MOPAC_SIM_SCALE)"

    if ! MOPAC_SIM_ENGINE=tick "$bin" --jobs 2 >"$workdir/$name.clean" \
            2>"$workdir/$name.clean.err"; then
        echo "FAIL: clean run of $name failed" >&2
        cat "$workdir/$name.clean.err" >&2
        status=1
        continue
    fi

    MOPAC_SIM_ENGINE=event "$bin" --jobs 4 --journal "$journal" \
        >"$workdir/$name.killed" 2>&1 &
    sweep_pid=$!
    sleep "$KILL_AFTER"
    if kill -9 "$sweep_pid" 2>/dev/null; then
        echo "   SIGKILLed journaled sweep (pid $sweep_pid) after ${KILL_AFTER}s"
    else
        echo "   sweep finished before the kill (resume still exercised)"
    fi
    wait "$sweep_pid" 2>/dev/null
    sweep_pid=""

    if ! MOPAC_SIM_ENGINE=event "$bin" --jobs 3 --resume "$journal" \
            >"$workdir/$name.resumed" 2>"$workdir/$name.resumed.err"; then
        echo "FAIL: resume of $name failed" >&2
        cat "$workdir/$name.resumed.err" >&2
        status=1
        continue
    fi

    if diff -u <(strip_progress "$workdir/$name.clean") \
               <(strip_progress "$workdir/$name.resumed"); then
        echo "   OK: resumed report is byte-identical to the clean run"
    else
        echo "FAIL: $name resumed report differs from the clean run" >&2
        status=1
    fi
done
exit $status
