/**
 * @file
 * Parallel experiment runner.
 *
 * Every figure/table of the paper sweeps many independent
 * (workload x config) points; the Runner executes them on a
 * std::thread pool while keeping each point bit-for-bit deterministic:
 *
 *  - Each ExperimentPoint carries its own counter-mode RNG stream
 *    (Rng::streamSeed over (master_seed, stream id), assigned at sweep
 *    expansion), so results do not depend on thread count or
 *    scheduling order.
 *  - Workers share one atomic cursor over the sweep: a free worker
 *    takes the next point in sweep order (greedy list scheduling), so
 *    a few slow points cannot serialize the tail of the sweep.
 *  - A crashing point (exception, panic(), fatal()) is quarantined:
 *    it reports PointStatus::kFailed with its seed for single-threaded
 *    replay instead of killing the sweep.  A point that hits its cycle
 *    guard reports kTimedOut the same way.
 *  - Per-point StatSnapshots are merged in point-id order after the
 *    workers join, so the final stats table is also schedule
 *    independent and free of data races.
 */

#ifndef MOPAC_SIM_RUNNER_HH
#define MOPAC_SIM_RUNNER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "sim/experiment.hh"
#include "sim/sharding.hh"

namespace mopac
{

/** Runner tuning knobs. */
struct RunnerOptions
{
    /** Worker threads; 0 selects std::thread::hardware_concurrency. */
    unsigned jobs = 0;
    /**
     * Cycle guard applied to points whose config leaves max_cycles at
     * 0 (0 = keep the config's own generous automatic bound).  This is
     * what actually stops a livelocked point.
     */
    std::uint64_t point_max_cycles = 0;
    /**
     * Bounded retry-with-reseed for fault-plan points: when a point
     * whose config carries an active FaultPlan classifies VIOLATED or
     * HUNG, re-run it up to this many extra times with a reseeded
     * fault stream (Rng::streamSeed over the plan seed and the attempt
     * number -- still fully deterministic).  A transiently-unlucky
     * schedule recovers; a systematic failure exhausts its retries and
     * is quarantined as kFaulted.  0 = no retries.
     */
    unsigned fault_retries = 0;
    /**
     * Journaled sweeps only: once a graceful stop has been requested,
     * give in-flight points this many seconds to finish before
     * escalating to a hard abort (which abandons them with the
     * watchdog-style command-tail diagnostic).  0 = wait forever.
     */
    double drain_deadline_sec = 0.0;
};

/** Terminal state of one executed point. */
enum class PointStatus
{
    kOk,
    kFailed,
    kTimedOut,
    /**
     * The point ran under an active FaultPlan and classified VIOLATED
     * or HUNG (after exhausting any fault_retries).  Quarantined like
     * kFailed: excluded from merged stats, replayable by id.
     */
    kFaulted,
    /**
     * The point was not executed: a journaled sweep was interrupted
     * before reaching it (or its in-flight execution was aborted).
     * Resuming the sweep runs it.
     */
    kNotRun,
};

/** Printable name of a point status. */
const char *toString(PointStatus status);

/** Everything the sweep keeps about one executed point. */
struct PointResult
{
    std::uint64_t point_id = 0;
    PointStatus status = PointStatus::kFailed;
    /** The exact seed the point ran with (replay handle). */
    std::uint64_t seed = 0;
    /** Wall-clock execution time of the point, seconds. */
    double wall_seconds = 0.0;
    /** Failure / timeout description (empty when kOk). */
    std::string error;
    /** Fault-aware severity of the (last) attempt. */
    OutcomeClass outcome = OutcomeClass::kOk;
    /** Executions of this point (1 unless fault_retries kicked in). */
    unsigned attempts = 1;
    /**
     * Simulation result (valid when status == kOk, and for kFaulted
     * points whose last attempt completed -- e.g. a VIOLATED run).
     */
    RunResult run;
    /** Component statistics snapshot (valid like @c run). */
    StatSnapshot stats;
};

/**
 * Exit code summarizing a finished sweep per the shared code map in
 * sim/stop.hh: kViolatedExit when any point's outcome classified
 * VIOLATED, else kHungExit when any classified HUNG, else
 * kQuarantinedExit when any point was quarantined for another reason
 * (crash, timeout, retry exhaustion), else kResumableExit when points
 * are left kNotRun (interrupted sweep), else 0.
 */
int sweepExitCode(const std::vector<PointResult> &results);

/**
 * @p point as the Runner executes it under @p opts: a config that
 * leaves max_cycles at 0 takes the point_max_cycles guard.
 */
ExperimentPoint guardedPoint(const ExperimentPoint &point,
                             const RunnerOptions &opts);

class ResultStore;

/**
 * Outcome of one checkpoint-capable point execution
 * (Runner::replayCheckpointed).  When @c preempted is true the point
 * yielded at a snapshot-durable boundary: @c result is not a terminal
 * state and the checkpoint file holds the resumable System.  Otherwise
 * @c result is exactly what replay() would have produced.
 */
struct CheckpointedPointRun
{
    bool preempted = false;
    /** Cycle the last attempt started from (0 = fresh run). */
    Cycle resumed_from = 0;
    /** Cycles executed by the last attempt (rework accounting). */
    Cycle executed_cycles = 0;
    PointResult result;
};

/** Outcome of one journaled (resumable) sweep invocation. */
struct JournaledSweepResult
{
    /** Per-point results, indexed like the input point list. */
    std::vector<PointResult> results;
    /** Points served finished from the result store (skipped). */
    std::size_t reused = 0;
    /** Points executed by this invocation. */
    std::size_t executed = 0;
    /** Points left kNotRun (stop / abort cut the sweep short). */
    std::size_t pending = 0;

    /** Every point finished OK-or-quarantined; nothing left to run. */
    bool complete() const { return pending == 0; }
};

/** Executes sweeps; see the file comment for the guarantees. */
class Runner
{
  public:
    /** Called after each point completes (from the worker thread). */
    using ProgressFn =
        std::function<void(const ExperimentPoint &, const PointResult &)>;

    explicit Runner(RunnerOptions opts = {});

    /**
     * Execute every point and return results indexed like @p points.
     * @p progress (optional) is invoked once per finished point; it
     * must be thread-safe, as workers call it concurrently.
     */
    std::vector<PointResult> run(
        const std::vector<ExperimentPoint> &points,
        const ProgressFn &progress = nullptr) const;

    /**
     * Execute the sweep against the ResultStore at @p store_dir:
     * points whose result the store holds are served and skipped,
     * each newly finished point is put atomically, and a
     * graceful-stop request (sweepstop) pauses the sweep at the next
     * point boundary -- in-flight points get drain_deadline_sec to
     * finish before a hard abort abandons them.  Interrupt at any
     * instant (including SIGKILL), re-invoke with the same directory,
     * and the merged results are bit-identical to an uninterrupted
     * run at any jobs count.  A store written by another sweep serves
     * the cells the two sweeps share.
     */
    JournaledSweepResult runJournaled(
        const std::vector<ExperimentPoint> &points,
        const std::string &store_dir,
        const ProgressFn &progress = nullptr) const;

    /**
     * Run one point on the calling thread with stats captured --
     * exactly what a sweep worker does per point, and the
     * `--replay point_id` debugging path.
     */
    static PointResult replay(const ExperimentPoint &point,
                              const RunnerOptions &opts = {});

    /**
     * Checkpoint-capable single-point execution: replay() with
     * mid-run snapshots driven by @p ckpt.  @p ckpt.restore_path is
     * honoured only when the file exists, so callers can pass the
     * save path for both directions.  Fault-plan retries delete the
     * checkpoint and restart fresh -- a reseeded fault stream makes
     * the old snapshot a different execution.  A kPreempt from
     * ckpt.on_checkpoint (or a graceful stop request) yields with
     * @c preempted set and the snapshot durable on disk; a later call
     * restoring that snapshot finishes bit-identically to an
     * uninterrupted replay().
     */
    static CheckpointedPointRun replayCheckpointed(
        const ExperimentPoint &point, const RunnerOptions &opts,
        const CheckpointOptions &ckpt);

    /**
     * Merge the stat snapshots of all kOk points, in point-id order,
     * into one table.
     */
    static StatSnapshot mergeStats(
        const std::vector<PointResult> &results);

    /** Resolved worker count. */
    unsigned jobs() const;

  private:
    /**
     * The worker pool: execute points[i] for every i in @p order into
     * results[i] and return how many finished.  With a @p store,
     * each finished point is put, a graceful stop ends the sweep at
     * the next point boundary, and an aborted point stays kNotRun.
     */
    std::size_t runPool(const std::vector<ExperimentPoint> &points,
                        const std::vector<std::size_t> &order,
                        std::vector<PointResult> &results,
                        ResultStore *store,
                        const ProgressFn &progress) const;

    RunnerOptions opts_;
};

} // namespace mopac

#endif // MOPAC_SIM_RUNNER_HH
