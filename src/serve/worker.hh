/**
 * @file
 * Worker-process side of the supervisor<->worker protocol.
 *
 * A worker is a fork()ed child of the supervisor that executes one
 * assigned point at a time on its end of a SOCK_STREAM socketpair:
 *
 *   supervisor -> worker : kAssign (point + attempt + knobs)
 *   worker -> supervisor : kPointStart (about to simulate; a beat)
 *                          kPointDone  (full PointResult)
 *                          kHeartbeat  (idle liveness beat)
 *
 * The worker itself holds NO retry or scheduling logic: it runs what
 * it is told with Runner::replay (single-threaded, deterministic) and
 * reports the result.  All supervision -- heartbeat watchdogs, crash
 * detection, retry/backoff, quarantine -- lives on the parent side,
 * so a worker can die at any instant (SIGKILL mid-simulation) without
 * corrupting anything: the parent reassigns the in-flight point.
 *
 * Because the simulation loop is blocking, a worker cannot beat
 * mid-point; kPointStart doubles as the pre-point beat and the
 * in-simulation hang protection is the cycle guard plus the
 * forward-progress watchdog inside the simulator.  The supervisor's
 * heartbeat watchdog therefore uses a per-point deadline (idle beats
 * are cheap, busy workers get a generous point budget).
 */

#ifndef MOPAC_SERVE_WORKER_HH
#define MOPAC_SERVE_WORKER_HH

namespace mopac::serve
{

/**
 * Worker main loop.  Runs in the forked child; services assignments
 * on @p fd until the supervisor SIGKILLs it (workers keep no state
 * between points), the socket closes (supervisor died -- orphan
 * workers must not linger), or a protocol error.
 *
 * @param fd The worker end of the socketpair.
 * @param heartbeat_sec Idle beat period.
 * @return Process exit code (0 when the supervisor is gone, 1 on a
 *         protocol error).
 *         The caller must _exit() with it -- never return through
 *         main() from a forked child.
 */
int workerMain(int fd, double heartbeat_sec);

} // namespace mopac::serve

#endif // MOPAC_SERVE_WORKER_HH
