/**
 * @file
 * Lightweight always-on cycle-attribution profiler.
 *
 * Throughput work must be measured, not asserted: every hot loop
 * increments a per-component counter here so `profileReport()` can
 * show where simulated cycles go (core ticks and fast-forward
 * windows, issue scans, controller scheduler passes, event-engine
 * maintenance, skipped cycles).  `mopac_sim` prints that report for
 * its main run.  The counters are:
 *
 *  - *cheap*: plain thread-local u64 increments, hoisted to one
 *    `simProfile()` lookup per hot call, so they stay enabled in
 *    release builds and in CI;
 *  - *thread-local*: the parallel Runner ticks one System per worker
 *    thread, so counters never race (TSAN-clean) -- callers that want
 *    a sweep-wide view aggregate per-point snapshots themselves;
 *  - *outside the simulation*: never serialized, never read by
 *    simulation code, and they differ between the tick and event
 *    engines by design (cycles_skipped), so they must never feed
 *    RunResult or snapshot bytes.
 *
 * Core cycles come in three kinds.  A real `Core::tick` call
 * simulates one cycle (core_ticks, of which core_active_ticks changed
 * state).  A fast-forward window (`Core::fastForward`) simulates in
 * one call a run of cycles that only release MSHRs, retire, fetch or
 * sleep (core_ff_windows windows covering core_ff_cycles cycles).
 * Cycles a core sleeps through outside any window, on its wake bound,
 * are in neither count.
 */

#ifndef MOPAC_SIM_PROFILE_HH
#define MOPAC_SIM_PROFILE_HH

#include <cstdint>
#include <string>

namespace mopac
{

/** Per-thread hot-loop counters (see file header for the contract). */
struct SimProfile
{
    // Run-loop engine.
    std::uint64_t cycles_run = 0;      ///< cycles executed by runTo / AttackRunner
    std::uint64_t cycles_skipped = 0;  ///< cycles elided by the event engine
    std::uint64_t event_maint = 0;     ///< next-event min computations

    // Core model.
    std::uint64_t core_ticks = 0;          ///< Core::tick calls
    std::uint64_t core_active_ticks = 0;   ///< ticks that changed state
    std::uint64_t core_issue_scans = 0;    ///< issue() calls that walked ops
    std::uint64_t core_issue_steps = 0;    ///< ROB ops examined by issue()
    std::uint64_t core_release_scans = 0;  ///< MSHR-release walks
    std::uint64_t core_ff_windows = 0;     ///< fast-forward windows opened
    std::uint64_t core_ff_cycles = 0;      ///< core-cycles simulated in them

    // Memory controller.
    std::uint64_t mc_ticks = 0;           ///< Controller::tick past next_wake_
    std::uint64_t mc_sched_passes = 0;    ///< scheduleOne invocations
    std::uint64_t mc_cas_candidates = 0;  ///< per-bank CAS candidates examined
    std::uint64_t mc_act_candidates = 0;  ///< per-bank ACT candidates examined
    std::uint64_t mc_queue_cycles = 0;    ///< sum of queue depth per sched pass
    std::uint64_t mc_mark_walks = 0;      ///< per-bank hit/conflict rewalks
    std::uint64_t mc_mark_steps = 0;      ///< requests examined by rewalks

    void reset() { *this = SimProfile{}; }

    /** Component-wise sum (for aggregating per-point snapshots). */
    void add(const SimProfile &o);
};

/** The calling thread's profile (one simulated System per thread). */
inline thread_local SimProfile t_sim_profile; // NOLINT

inline SimProfile &
simProfile()
{
    return t_sim_profile;
}

/**
 * Human-readable breakdown table.
 *
 * @param p Counter snapshot (typically end-of-run minus start-of-run).
 * @param wall_seconds Optional wall time for ns/cycle attribution
 *        (pass 0 to omit the rate columns).
 */
std::string profileReport(const SimProfile &p, double wall_seconds);

} // namespace mopac

#endif // MOPAC_SIM_PROFILE_HH
