#!/usr/bin/env bash
# Daemon kill-resume smoke test (the service-level sibling of
# kill_resume_smoke.sh).
#
#   1. run a bench driver locally for the reference report,
#   2. start mopac_serve, re-run the driver with --submit, and
#      SIGKILL the DAEMON mid-sweep (no handler, no flush),
#   3. restart the daemon on the same state dir: it re-adopts the
#      persisted job, serves its finished points from the result
#      store, the client reconnects and resubmits idempotently, and
#      the sweep completes,
#   4. require the submitted report to be byte-identical to the
#      local run (info:/warn: progress lines excluded),
#   5. prune jobs/ (the job specs) but keep cache/ (the result
#      store), restart, resubmit: every point must be served from
#      the store, no re-simulation,
#   6. SIGTERM the daemon mid-sweep: graceful stop, exit 75
#      (resumable), per the exit-code map in EXPERIMENTS.md.
#
# An optional fourth binary is a second bench driver served through
# the same daemon after the restart dance (step 4b) -- CMake passes
# smoke_busy here so a memory-saturated sweep goes through the
# service path too, not just the idle-heavy sensitivity sweep.
#
# Usage: serve_smoke.sh <bench-binary> <mopac_serve> <mopac_submit> \
#            [<busy-bench-binary>]
# Env:   MOPAC_SIM_SCALE  simulation downscale (default 0.03)
#        KILL_AFTER       seconds before each kill (default 2)

set -u

if [ "$#" -lt 3 ] || [ "$#" -gt 4 ]; then
    echo "usage: $0 <bench-binary> <mopac_serve> <mopac_submit>" \
         "[<busy-bench-binary>]" >&2
    exit 2
fi

bench=$1
serve=$2
submit=$3
busy_bench="${4:-}"

export MOPAC_SIM_SCALE="${MOPAC_SIM_SCALE:-0.03}"
KILL_AFTER="${KILL_AFTER:-2}"

workdir=$(mktemp -d) || { echo "FAIL: mktemp -d failed" >&2; exit 1; }
sock="$workdir/serve.sock"
state="$workdir/state"
daemon_pid=""
client_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null
    [ -n "$client_pid" ] && kill -9 "$client_pid" 2>/dev/null
    rm -rf "$workdir"
}
# INT/TERM too: an interrupted run must not leak the daemon, the
# background client, or the temp dir.
trap cleanup EXIT INT TERM

strip_progress() {
    grep -v -e '^info:' -e '^warn:' "$1"
}

start_daemon() {
    # Fail fast if something already answers on this socket: starting
    # a second daemon would race it for the state dir, and every check
    # below would be testing the wrong process.
    if "$submit" --socket "$sock" --timeout 1 ping \
            >/dev/null 2>&1; then
        echo "FAIL: a previous daemon is still listening on $sock;" \
             "kill it (or remove the socket) and rerun" >&2
        return 1
    fi
    "$serve" --socket "$sock" --state "$state" --workers 2 \
        >>"$workdir/daemon.log" 2>&1 &
    daemon_pid=$!
    # Wait for the socket to accept.
    for _ in $(seq 50); do
        if "$submit" --socket "$sock" --timeout 1 ping \
                >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.2
    done
    echo "FAIL: daemon did not come up" >&2
    return 1
}

status=0
name=$(basename "$bench")
echo "== serve smoke: $name (scale $MOPAC_SIM_SCALE)"

# 1. Local reference run.
if ! "$bench" --jobs 1 >"$workdir/clean.out" 2>&1; then
    echo "FAIL: local reference run failed" >&2
    cat "$workdir/clean.out" >&2
    exit 1
fi

# 2. Submit through the daemon and SIGKILL the daemon mid-sweep.
start_daemon || exit 1
"$bench" --jobs 1 --submit "$sock" >"$workdir/submitted.out" 2>&1 &
client_pid=$!
sleep "$KILL_AFTER"
if kill -9 "$daemon_pid" 2>/dev/null; then
    echo "   SIGKILLed daemon (pid $daemon_pid) after ${KILL_AFTER}s"
else
    echo "   daemon finished before the kill (restart still exercised)"
fi
wait "$daemon_pid" 2>/dev/null
daemon_pid=""

# 3. Restart: job re-adoption from the store + client reconnect
#    finish the job.
start_daemon || exit 1
if wait "$client_pid"; then
    echo "   client completed across the daemon restart"
else
    echo "FAIL: submitted run failed (exit $?)" >&2
    cat "$workdir/submitted.out" >&2
    status=1
fi
client_pid=""

# 4. The served manifest must equal the local run bit for bit.
if diff -u <(strip_progress "$workdir/clean.out") \
           <(strip_progress "$workdir/submitted.out"); then
    echo "   OK: served report is byte-identical to the local run"
else
    echo "FAIL: served report differs from the local run" >&2
    status=1
fi

# 4b. Busy-point pass: serve a memory-saturated sweep through the
#     already-restarted daemon and require bit-identity with a local
#     run, so the service path is exercised on optimized scheduler
#     state, not just the idle-heavy sensitivity sweep.
if [ -n "$busy_bench" ]; then
    busy_name=$(basename "$busy_bench")
    if ! "$busy_bench" --jobs 1 >"$workdir/busy.clean.out" 2>&1; then
        echo "FAIL: local $busy_name run failed" >&2
        cat "$workdir/busy.clean.out" >&2
        status=1
    elif ! "$busy_bench" --jobs 1 --submit "$sock" \
            >"$workdir/busy.submitted.out" 2>&1; then
        echo "FAIL: served $busy_name run failed" >&2
        cat "$workdir/busy.submitted.out" >&2
        status=1
    elif diff -u <(strip_progress "$workdir/busy.clean.out") \
                 <(strip_progress "$workdir/busy.submitted.out"); then
        echo "   OK: served $busy_name report is byte-identical" \
             "to the local run"
    else
        echo "FAIL: served $busy_name report differs from the local" \
             "run" >&2
        status=1
    fi
fi

# 5. Store serving: forget the job, keep the result store, resubmit.
"$submit" --socket "$sock" shutdown >/dev/null 2>&1
wait "$daemon_pid" 2>/dev/null
daemon_pid=""
if [ -n "$(ls "$state/cache"/*.rec 2>/dev/null)" ]; then
    echo "   OK: finished points are in the result store ($state/cache)"
else
    echo "FAIL: the result store holds no entries" >&2
    status=1
fi
rm -rf "$state/jobs"
# Only this daemon's log lines count below: a job re-adopted by an
# earlier restart is also served from the store.
log_mark=$(wc -l <"$workdir/daemon.log")
start_daemon || exit 1
if ! "$bench" --jobs 1 --submit "$sock" >"$workdir/cached.out" 2>&1; then
    echo "FAIL: cached resubmission failed" >&2
    status=1
fi
if diff -u <(strip_progress "$workdir/clean.out") \
           <(strip_progress "$workdir/cached.out") >/dev/null; then
    echo "   OK: cached report matches the local run"
else
    echo "FAIL: cached report differs from the local run" >&2
    status=1
fi
# Shut the daemon down first: its stdout is block-buffered into the
# log file, so the completion line only lands on exit.
"$submit" --socket "$sock" shutdown >/dev/null 2>&1
wait "$daemon_pid" 2>/dev/null
daemon_pid=""
# The daemon's completion line proves no point re-simulated: all of
# `done` came from the store.
if tail -n +"$((log_mark + 1))" "$workdir/daemon.log" | grep -E \
        'job [0-9a-f]+ complete: ([1-9][0-9]*) done \(\1 cached\)' \
        >/dev/null; then
    echo "   OK: every point was served from the result store"
else
    echo "FAIL: resubmission re-simulated instead of hitting the store" >&2
    tail -5 "$workdir/daemon.log" >&2
    status=1
fi

# 6. Graceful stop: SIGTERM mid-sweep must exit 75 (resumable).
rm -rf "$state"
start_daemon || exit 1
"$bench" --jobs 1 --submit "$sock" >"$workdir/stopped.out" 2>&1 &
client_pid=$!
sleep "$KILL_AFTER"
kill -TERM "$daemon_pid" 2>/dev/null
wait "$daemon_pid"
rc=$?
daemon_pid=""
kill -9 "$client_pid" 2>/dev/null
wait "$client_pid" 2>/dev/null
client_pid=""
if [ "$rc" -eq 75 ]; then
    echo "   OK: SIGTERM mid-sweep exits 75 (resumable)"
elif [ "$rc" -eq 0 ]; then
    echo "   sweep finished before the SIGTERM (exit 0 is the clean case)"
else
    echo "FAIL: daemon exited $rc on SIGTERM (want 75 or 0)" >&2
    status=1
fi

exit $status
