/**
 * @file
 * Parallel experiment runner.
 *
 * Every figure/table of the paper sweeps many independent
 * (workload x config) points.  Runner::sweep is the one sweep driver:
 * it serves finished points from an optional ResultStore, runs the
 * rest on its own std::thread workers, stores each finished point,
 * and owns graceful stop and the sweep report.  Each point stays
 * bit-for-bit deterministic:
 *
 *  - Each ExperimentPoint carries its own counter-mode RNG stream
 *    (Rng::streamSeed over (master_seed, stream id), assigned at sweep
 *    expansion), so results do not depend on thread count or
 *    scheduling order.
 *  - Workers share one atomic cursor over the sweep: a
 *    free worker takes the next point in sweep order (greedy list
 *    scheduling), so a few slow points cannot serialize the tail.
 *  - A crashing point (exception, panic(), fatal()) is quarantined:
 *    it reports PointStatus::kFailed with its seed for single-threaded
 *    replay instead of killing the sweep.  A point that hits its
 *    config's max_cycles guard reports kTimedOut the same way.
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
#include "sim/sweep.hh"

namespace mopac
{

/** Runner tuning knobs. */
struct RunnerOptions
{
    /** Worker threads; 0 selects std::thread::hardware_concurrency. */
    unsigned jobs = 0;
};

/** Terminal state of one executed point. */
enum class PointStatus
{
    kOk,
    kFailed,
    kTimedOut,
    /**
     * The point ran under an active FaultPlan and classified VIOLATED
     * or HUNG.  Quarantined like kFailed: excluded from merged stats,
     * replayable by id.
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
    /** Fault-aware severity of the run. */
    OutcomeClass outcome = OutcomeClass::kOk;
    /**
     * Simulation result (valid when status == kOk, and for kFaulted
     * points whose run completed -- e.g. a VIOLATED run).
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
 * (crash, timeout), else kResumableExit when points are left kNotRun
 * (interrupted sweep), else 0.
 */
int sweepExitCode(const std::vector<PointResult> &results);

class ResultStore;

/** Where a sweep report's result for one point came from. */
enum class PointSource : std::uint8_t
{
    kPending,    //!< Not finished (a stop cut it off, or still running).
    kFresh,      //!< Executed by this sweep and finished OK.
    kCache,      //!< Served from the result store.
    kQuarantine, //!< Executed by this sweep and quarantined.
};

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
     * holds are served from it; this Runner's worker threads execute
     * the rest, and each finished point is put into the store -- a
     * failed write is counted as a brownout and the result kept in
     * memory.  A graceful stop (sweepstop) ends the sweep at the next
     * point boundary and lets in-flight points finish; a hard abort
     * abandons them as kNotRun.  Interrupt at any instant (including
     * SIGKILL), re-invoke with the same store, and the results are
     * bit-identical to an uninterrupted run at any jobs count.  @p progress fires once per executed
     * point (not for store hits), from whichever thread finished it.
     */
    SweepReport sweep(const std::vector<ExperimentPoint> &points,
                      ResultStore *store,
                      const ProgressFn &progress = nullptr) const;

    /**
     * Run one point on the calling thread with stats captured --
     * exactly what a sweep worker does per point, and the
     * `--replay point_id` debugging path.  The point's config alone
     * decides the result.
     */
    static PointResult replay(const ExperimentPoint &point);

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

} // namespace mopac

#endif // MOPAC_SIM_RUNNER_HH
