/**
 * @file
 * Parallel experiment runner.
 *
 * Every figure/table of the paper sweeps many independent
 * (workload x config) points.  Runner::sweep is the one sweep driver:
 * it serves finished points from an optional ResultStore, hands the
 * rest to a pool (its own std::thread workers, or the forked worker
 * processes of serve::Supervisor), stores each finished point, and
 * owns graceful stop and the sweep report.  Each point stays
 * bit-for-bit deterministic:
 *
 *  - Each ExperimentPoint carries its own counter-mode RNG stream
 *    (Rng::streamSeed over (master_seed, stream id), assigned at sweep
 *    expansion), so results do not depend on thread count or
 *    scheduling order.
 *  - Thread-pool workers share one atomic cursor over the sweep: a
 *    free worker takes the next point in sweep order (greedy list
 *    scheduling), so a few slow points cannot serialize the tail.
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

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/wallclock.hh"
#include "sim/experiment.hh"
#include "sim/sweep.hh"

namespace mopac
{

/** Runner tuning knobs. */
struct RunnerOptions
{
    /**
     * Pool size: worker threads, or worker processes under
     * serve::Supervisor; 0 selects std::thread::hardware_concurrency.
     */
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
     * Runner::sweep on either pool: once a graceful stop has been
     * requested, give in-flight points this many seconds to finish
     * before escalating to a hard abort, which abandons them as
     * kNotRun.  0 = wait forever.
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
     * The point was not executed: a stop cut the sweep short before
     * reaching it (or its in-flight execution was abandoned).
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
class SweepPool;

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

/** Where a sweep report's result for one point came from. */
enum class PointSource : std::uint8_t
{
    kPending,    //!< Not finished (a stop cut it off, or still running).
    kFresh,      //!< Executed by this sweep and finished OK.
    kCache,      //!< Served from the result store.
    kQuarantine, //!< Executed by this sweep and quarantined.
};

/** Printable name of a point source. */
const char *toString(PointSource source);

/** Aggregate progress counters of a sweep. */
struct SweepCounts
{
    std::uint64_t total = 0;
    std::uint64_t done = 0;        //!< OK results (fresh + cached).
    std::uint64_t cached = 0;      //!< Subset of done served from the
                                   //!< result store.
    std::uint64_t quarantined = 0;
    std::uint64_t pending = 0;     //!< Not finished.
};

/** Everything a sweep reports back (Runner::sweep). */
struct SweepReport
{
    /** Per-point results, indexed like the input point list. */
    std::vector<PointResult> results;
    /** Where each result came from (kPending = left kNotRun). */
    std::vector<PointSource> sources;
    /** Points served from the result store. */
    std::uint64_t cache_hits = 0;
    /** Store writes that failed and were tolerated (the result
     *  stays in memory and the sweep goes on -- brownout). */
    std::uint64_t storage_write_failures = 0;
    /** True when a stop left points kPending. */
    bool stopped = false;

    /** A report with every point of @p points kPending / kNotRun. */
    static SweepReport allPending(
        const std::vector<ExperimentPoint> &points);

    /** Exit code per the shared map in sim/stop.hh. */
    int exitCode() const { return sweepExitCode(results); }
    /** Aggregate progress counters. */
    SweepCounts counts() const;
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
     * Execute every point on the thread pool and return results
     * indexed like @p points: sweep() without a store.  @p progress
     * (optional) is invoked once per finished point; it must be
     * thread-safe, as workers call it concurrently.
     */
    std::vector<PointResult> run(
        const std::vector<ExperimentPoint> &points,
        const ProgressFn &progress = nullptr) const;

    /**
     * The sweep driver.  Points whose result @p store (optional)
     * holds are served from it; @p pool (default: this Runner's
     * worker threads) executes the rest, and each finished point is
     * put into the store -- a failed write is counted as a brownout
     * and the result kept in memory.  A graceful stop (sweepstop)
     * ends the sweep at the next point boundary; in-flight points get
     * drain_deadline_sec to finish before a hard abort abandons them
     * as kNotRun.  Interrupt at any instant (including SIGKILL),
     * re-invoke with the same store, and the results are
     * bit-identical to an uninterrupted run on either pool at any
     * jobs count.  @p progress fires once per executed point (not
     * for store hits), from whichever thread finished it.
     */
    SweepReport sweep(const std::vector<ExperimentPoint> &points,
                      ResultStore *store,
                      const ProgressFn &progress = nullptr,
                      SweepPool *pool = nullptr) const;

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
    RunnerOptions opts_;
};

/**
 * The driver's side of one sweep, handed to the pool that executes
 * its pending points.  Owns the result store writes, the report, the
 * progress callback and the one drain deadline.
 */
class SweepControl
{
  public:
    /** Knobs every point executes under (jobs resolved, >= 1). */
    const RunnerOptions &options() const { return opts_; }

    /**
     * Record finished point @p index (any terminal status): put it
     * into the store -- a failed write is a brownout, counted and
     * warned about, never fatal -- then report it and fire progress.
     * Thread-safe for distinct indices.
     */
    void finish(std::size_t index, PointResult result);

    /** Point boundary: has a graceful stop been requested? */
    bool stopping() const;

    /**
     * Poll from the pool's coordinating thread once stopping(): true
     * when the in-flight points are to be given up (they stay
     * kNotRun) -- on an abort, or once drain_deadline_sec (0 = wait
     * forever) has passed since the first poll, which escalates the
     * stop to sweepstop::requestAbort().
     */
    bool abandon();

  private:
    friend class Runner;

    SweepControl(const std::vector<ExperimentPoint> &points,
                 const RunnerOptions &opts, ResultStore *store,
                 const Runner::ProgressFn &progress);

    const std::vector<ExperimentPoint> &points_;
    const RunnerOptions opts_;
    ResultStore *const store_;
    const Runner::ProgressFn &progress_;
    SweepReport report_;
    std::atomic<std::uint64_t> write_failures_{0};
    std::optional<wallclock::TimePoint> drain_deadline_;
};

/**
 * Executes the pending points of a sweep on something other than the
 * Runner's own worker threads: serve::Supervisor runs them on forked
 * worker processes.
 */
class SweepPool
{
  public:
    virtual ~SweepPool() = default;

    /**
     * Execute points[i] for every i in @p pending, reporting each
     * finished point through control.finish().  Returns once every
     * point finished or, after a stop, once the in-flight points
     * drained or were abandoned (control.abandon()); points never
     * finished stay kNotRun.
     */
    virtual void execute(const std::vector<ExperimentPoint> &points,
                         const std::vector<std::size_t> &pending,
                         SweepControl &control) = 0;
};

} // namespace mopac

#endif // MOPAC_SIM_RUNNER_HH
