/**
 * @file
 * Cooperative shutdown for long-running sweeps.
 *
 * The first SIGINT / SIGTERM requests a *graceful* stop: drivers
 * finish (or checkpoint) the work already in flight, store their
 * results, and exit with kResumableExit so wrappers can distinguish
 * "interrupted but resumable" from success and from failure.  A
 * second signal escalates to an *abort*: the run loop notices at its
 * next poll point and abandons the current point with an AbortError
 * carrying the recent command history, mirroring the forward-progress
 * watchdog's diagnostic.
 *
 * Everything is async-signal-safe: the handler only flips
 * sig_atomic_t-sized atomics and writes a fixed message to stderr.
 * State is process-global (signals are), but reset() restores the
 * pristine state so tests can exercise the machinery repeatedly.
 */

#ifndef MOPAC_SIM_STOP_HH
#define MOPAC_SIM_STOP_HH

#include <stdexcept>
#include <string>

namespace mopac
{

/**
 * Thrown by the run loop when an abort was requested.  Deliberately
 * NOT a SimError: ErrorTrap must not classify an operator abort as a
 * simulator fault, and the sweep must not store the point as run.
 */
class AbortError : public std::runtime_error
{
  public:
    explicit AbortError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

namespace sweepstop
{

/**
 * Process exit-code map shared by every bench driver and mopac_sim
 * (EXPERIMENTS.md, "Exit codes").  The codes
 * follow the BSD sysexits conventions loosely so wrappers can triage
 * a finished sweep without parsing its report:
 *
 *   0                 every point finished OK
 *   kViolatedExit  65 some point's outcome classified VIOLATED (the
 *                     security oracle saw ACTs beyond T_RH, or the
 *                     point crashed -- the PR 2 convention)
 *   kHungExit      70 some point classified HUNG (forward-progress
 *                     watchdog, or a worker hang-killed by the
 *                     supervisor) and none VIOLATED
 *   kQuarantinedExit 74 some point was quarantined (timeout, worker
 *                     crash, retry exhaustion) without a VIOLATED /
 *                     HUNG classification
 *   kResumableExit 75 graceful stop: the sweep was interrupted but is
 *                     resumable (--resume)
 */
constexpr int kViolatedExit = 65;
constexpr int kHungExit = 70;
constexpr int kQuarantinedExit = 74;

/** Exit status for "interrupted, resume with --resume" (EX_TEMPFAIL). */
constexpr int kResumableExit = 75;

/**
 * Install the SIGINT / SIGTERM handlers (idempotent).  First signal
 * requests a stop, the second an abort; a third falls through to the
 * default disposition so a wedged process can still be killed.
 */
void installSignalHandlers();

/** Has a graceful stop been requested? */
bool stopRequested();

/** Has a hard abort been requested? */
bool abortRequested();

/** Programmatic stop request (tests, drain deadlines). */
void requestStop();

/** Programmatic abort request (tests, drain deadlines). */
void requestAbort();

/** Clear both flags (tests; also before a fresh run in one process). */
void reset();

} // namespace sweepstop

} // namespace mopac

#endif // MOPAC_SIM_STOP_HH
