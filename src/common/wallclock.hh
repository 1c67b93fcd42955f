/**
 * @file
 * The one sanctioned wall-clock access point.
 *
 * Simulation state must never depend on host time: every simulated
 * quantity derives from the global cycle counter and the seeded RNG
 * streams, so sweeps are bit-identical at any --jobs (PR 1) and
 * across checkpoint/resume.  Host time is still legitimately needed
 * for *reporting* (a point's wall_seconds, benchmark timings), so
 * those uses funnel through this shim.  No decision in src/ reads it:
 * what a sweep runs, stores and reports as a result is a function of
 * the point configs alone.
 *
 * mopac_lint bans `std::chrono::*_clock::now()` (check `det-clock`)
 * everywhere except this file; code that needs elapsed wall time must
 * call these helpers, which keeps every host-time dependency greppable
 * and auditable from one place.  Never feed a value derived from this
 * header into simulation state, RNG seeding, or serialized output.
 */

#ifndef MOPAC_COMMON_WALLCLOCK_HH
#define MOPAC_COMMON_WALLCLOCK_HH

#include <chrono>

namespace mopac
{
namespace wallclock
{

/** Monotonic time point (never affected by host clock adjustments). */
using TimePoint = std::chrono::steady_clock::time_point;

/** Current monotonic time (reporting only). */
inline TimePoint
now()
{
    return std::chrono::steady_clock::now();
}

/** Seconds elapsed since @p start. */
inline double
secondsSince(TimePoint start)
{
    return std::chrono::duration<double>(now() - start).count();
}

} // namespace wallclock
} // namespace mopac

#endif // MOPAC_COMMON_WALLCLOCK_HH
