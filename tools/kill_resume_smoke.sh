#!/usr/bin/env bash
# Kill-resume smoke test.
#
# For each exhibit of mopac_exhibits named on the command line:
#   1. run it cleanly (no journal) and keep the report,
#   2. run it with --journal (a result-store directory) and SIGKILL
#      it as soon as the first point lands in the store (the harshest
#      possible interruption: no signal handler, no drain, no flush),
#   3. resume the sweep with --resume at a DIFFERENT --jobs count,
#   4. require the resumed report to be byte-identical to the clean
#      one (info:/warn: progress lines excluded -- the resumed run
#      legitimately reports how many points it reused),
#   5. resume the finished store once more: the report must again be
#      byte-identical, and every sweep must report all of its points
#      reused and none run ("journal ...: reused N finished points,
#      ran 0"),
#   6. run it with --journal on a fresh store and SIGTERM it once the
#      first point is stored: the graceful stop must exit 75
#      (resumable, per the exit-code map in EXPERIMENTS.md), and its
#      resume must match the clean report too.
#
# Exercises the whole crash-safety stack end to end: atomic store
# entry writes (a SIGKILL mid-write must leave a loadable store),
# keyed lookup of finished points, graceful stop at a point boundary,
# and schedule-independent stat merging.
#
# Usage: kill_resume_smoke.sh <mopac_exhibits> <exhibit> [<exhibit> ...]
# Env:   MOPAC_SIM_SCALE  simulation downscale (default 0.03)

set -u

if [ "$#" -lt 2 ]; then
    echo "usage: $0 <mopac_exhibits> <exhibit> [<exhibit> ...]" >&2
    exit 2
fi
bin=$1
shift

export MOPAC_SIM_SCALE="${MOPAC_SIM_SCALE:-0.03}"

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

# Spin (builtins only, so the poll itself is not the slow part) until
# the first finished point is in store $1 or process $2 has exited.
# Points at smoke scale take milliseconds, so a sleep-based poll
# could miss the whole sweep.
wait_for_first_point() {
    while kill -0 "$2" 2>/dev/null; do
        compgen -G "$1/*.rec" >/dev/null && return 0
    done
    return 1
}

# Report check shared by every resumed run: $1 = report, $2 = label.
same_as_clean() {
    if diff -u <(strip_progress "$workdir/$name.clean") \
               <(strip_progress "$1"); then
        echo "   OK: $2 report is byte-identical to the clean run"
    else
        echo "FAIL: $name $2 report differs from the clean run" >&2
        status=1
    fi
}

status=0
for name in "$@"; do
    journal="$workdir/$name.journal"
    echo "== $name (scale $MOPAC_SIM_SCALE)"

    if ! "$bin" "$name" --jobs 2 >"$workdir/$name.clean" \
            2>"$workdir/$name.clean.err"; then
        echo "FAIL: clean run of $name failed" >&2
        cat "$workdir/$name.clean.err" >&2
        status=1
        continue
    fi

    # Steps 2-4: SIGKILL mid-sweep, resume, compare.
    "$bin" "$name" --jobs 4 --journal "$journal" \
        >"$workdir/$name.killed" 2>&1 &
    sweep_pid=$!
    if wait_for_first_point "$journal" "$sweep_pid" &&
            kill -9 "$sweep_pid" 2>/dev/null; then
        echo "   SIGKILLed journaled sweep (pid $sweep_pid) after its" \
             "first stored point"
    else
        echo "   sweep finished before the kill (resume still exercised)"
    fi
    wait "$sweep_pid" 2>/dev/null
    sweep_pid=""

    if ! "$bin" "$name" --jobs 3 --resume "$journal" \
            >"$workdir/$name.resumed" 2>"$workdir/$name.resumed.err"; then
        echo "FAIL: resume of $name failed" >&2
        cat "$workdir/$name.resumed.err" >&2
        status=1
        continue
    fi
    same_as_clean "$workdir/$name.resumed" "resumed"

    # Step 5: a finished store serves the whole rerun.
    if ! "$bin" "$name" --jobs 2 --resume "$journal" \
            >"$workdir/$name.rerun" 2>"$workdir/$name.rerun.err"; then
        echo "FAIL: rerun of $name on its finished store failed" >&2
        cat "$workdir/$name.rerun.err" >&2
        status=1
        continue
    fi
    same_as_clean "$workdir/$name.rerun" "rerun"
    journal_lines=$(grep -c '^info: journal ' "$workdir/$name.rerun")
    reused_lines=$(grep -c -E \
        '^info: journal .*: reused [1-9][0-9]* finished points, ran 0$' \
        "$workdir/$name.rerun")
    if [ "$journal_lines" -gt 0 ] &&
            [ "$reused_lines" -eq "$journal_lines" ]; then
        echo "   OK: rerun reused every point and ran none"
    else
        echo "FAIL: $name rerun did not serve every point from the" \
             "store" >&2
        grep '^info: journal ' "$workdir/$name.rerun" >&2
        status=1
    fi

    # Step 6: SIGTERM mid-sweep is a graceful, resumable stop.
    term_journal="$workdir/$name.term"
    "$bin" "$name" --jobs 1 --journal "$term_journal" \
        >"$workdir/$name.term.out" 2>&1 &
    sweep_pid=$!
    wait_for_first_point "$term_journal" "$sweep_pid" &&
        kill -TERM "$sweep_pid" 2>/dev/null
    wait "$sweep_pid"
    rc=$?
    sweep_pid=""
    if [ "$rc" -eq 75 ]; then
        echo "   OK: SIGTERM mid-sweep exits 75 (resumable)"
    else
        echo "FAIL: $name exited $rc on SIGTERM mid-sweep (want 75)" >&2
        tail -5 "$workdir/$name.term.out" >&2
        status=1
        continue
    fi
    if ! "$bin" "$name" --jobs 2 --resume "$term_journal" \
            >"$workdir/$name.term.resumed" \
            2>"$workdir/$name.term.resumed.err"; then
        echo "FAIL: resume of $name after SIGTERM failed" >&2
        cat "$workdir/$name.term.resumed.err" >&2
        status=1
        continue
    fi
    same_as_clean "$workdir/$name.term.resumed" "post-SIGTERM resume"
done
exit $status
