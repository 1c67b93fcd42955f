/**
 * @file
 * Experiment helpers shared by the bench binaries, examples, and the
 * CLI: building and running named workloads, environment-based run
 * scaling, and slowdown computation.
 */

#ifndef MOPAC_SIM_EXPERIMENT_HH
#define MOPAC_SIM_EXPERIMENT_HH

#include <string>

#include "sim/system.hh"

namespace mopac
{

/**
 * Simulation horizon per core, scaled by the MOPAC_SIM_SCALE
 * environment variable (a float; e.g. 0.25 for quick runs, 4 for
 * higher fidelity) or overridden outright by MOPAC_SIM_INSTS.
 */
std::uint64_t defaultInstsPerCore(std::uint64_t base = 300000);

/**
 * Run workload @p name (Table 4 single program or "mixN") under
 * @p cfg.  Traces are derived from cfg.seed only, so two configs with
 * the same seed replay identical instruction streams -- paired runs
 * for slowdown measurements.
 *
 * @param stats_out When non-null, receives a value snapshot of every
 *        component statistic (taken after the run, before the System
 *        is destroyed); this is what the parallel runner merges.
 */
RunResult runWorkload(const SystemConfig &cfg, const std::string &name,
                      StatSnapshot *stats_out = nullptr);

/**
 * Substring of the forward-progress watchdog's panic message; a
 * captured error containing it classifies as HUNG.
 */
inline constexpr const char *kWatchdogMarker =
    "forward-progress watchdog";

/** Fault-aware severity of a completed (or crashed) run. */
OutcomeClass classifyRun(const RunResult &result);

/** Result-or-error of one guarded workload run. */
struct RunOutcome
{
    /** True when @c result (and @c stats) are valid. */
    bool ok = false;
    RunResult result;
    StatSnapshot stats;
    /** Failure description when !ok. */
    std::string error;
    /**
     * Severity class: OK / DEGRADED / VIOLATED / HUNG.  Valid in both
     * branches -- a crash classifies from its error text (a watchdog
     * panic is HUNG, anything else VIOLATED), a completed run from
     * its RunResult.
     */
    OutcomeClass outcome = OutcomeClass::kOk;
};

/** Checkpoint/restore knobs for a single workload run. */
struct CheckpointOptions
{
    /**
     * Snapshot file to maintain ("" = checkpointing off).  The file is
     * rewritten atomically (temp + rename), so a crash mid-write
     * leaves the previous snapshot intact.
     */
    std::string save_path;
    /**
     * Cycles between periodic snapshots (0 = snapshot only when a
     * graceful stop is requested via sweepstop).
     */
    std::uint64_t checkpoint_every = 0;
    /**
     * Snapshot file to restore from before running ("" = fresh run).
     * The snapshot's config hash must match the live (config,
     * workload) pair; a mismatch, truncation, or bit flip throws
     * SerializeError.
     */
    std::string restore_path;
};

/** Outcome of one checkpointed workload run. */
struct CheckpointedRun
{
    /**
     * True when the run reached its natural end; false when a
     * graceful stop interrupted it at a checkpoint boundary (the
     * snapshot file then holds the resumable state).
     */
    bool finished = false;
    /** Simulation result (valid only when finished). */
    RunResult result;
    /** Cycle of the last snapshot taken (interrupted runs). */
    Cycle stopped_at = 0;
};

/**
 * Config-identity hash bound into a snapshot's envelope: restoring a
 * snapshot under a different config or workload is a structured fatal
 * error, never silent state corruption.
 */
std::uint64_t snapshotConfigHash(const SystemConfig &cfg,
                                 const std::string &workload);

/**
 * runWorkload with mid-run snapshots: optionally restore from
 * @p ckpt.restore_path, then execute in runTo() chunks, writing the
 * versioned snapshot (System + mitigation engines + RNG streams +
 * workload cursors) every checkpoint_every cycles and on a graceful
 * stop request.  A restored run continues bit-identically to the
 * uninterrupted one.
 */
CheckpointedRun runWorkloadCheckpointed(const SystemConfig &cfg,
                                        const std::string &name,
                                        const CheckpointOptions &ckpt,
                                        StatSnapshot *stats_out = nullptr);

/**
 * runWorkload with the failure path made structural: panic(), fatal(),
 * and any exception thrown while building or running the point are
 * captured into RunOutcome::error instead of propagating (or calling
 * abort()/exit()).  This is what lets a sweep quarantine one broken
 * point and keep the other results.  An AbortError (operator abort)
 * still propagates.
 */
RunOutcome tryRunWorkload(const SystemConfig &cfg,
                          const std::string &name,
                          bool capture_stats = false);

/**
 * Convenience: slowdown of mitigation @p kind vs the unprotected
 * baseline on one workload (both runs share the seed).
 */
double workloadSlowdown(const SystemConfig &base_cfg,
                        const SystemConfig &test_cfg,
                        const std::string &name);

} // namespace mopac

#endif // MOPAC_SIM_EXPERIMENT_HH
