/**
 * @file
 * Parallel runner implementation.
 *
 * Concurrency notes (the TSan preset runs the determinism test against
 * exactly this code):
 *  - Workers claim points through one atomic cursor over the pending
 *    list; each index is handed out exactly once.
 *  - The report is pre-sized and each slot is written by exactly one
 *    worker (SweepControl::finish) before the join; the driver only
 *    reads it after join(), so the join is the only synchronization
 *    the results need.  The brownout counter is atomic.
 *  - The drain deadline is watched by the thread that called sweep().
 */

#include "runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/wallclock.hh"
#include "sim/result_store.hh"
#include "sim/stop.hh"

namespace mopac
{

namespace
{

/**
 * The driver's side of one sweep: owns the result store writes, the
 * report and the progress callback.
 */
class SweepControl
{
  public:
    SweepControl(const std::vector<ExperimentPoint> &points,
                 const RunnerOptions &opts, ResultStore *store,
                 const Runner::ProgressFn &progress)
        : points_(points), opts_(opts), store_(store),
          progress_(progress)
    {
        report_.results.resize(points.size());
        report_.sources.assign(points.size(), PointSource::kPending);
        for (std::size_t i = 0; i < points.size(); ++i) {
            report_.results[i].point_id = points[i].point_id;
            report_.results[i].status = PointStatus::kNotRun;
            report_.results[i].seed = points[i].cfg.seed;
            report_.results[i].attempts = 0;
        }
    }

    /** Knobs every point executes under (jobs resolved, >= 1). */
    const RunnerOptions &options() const { return opts_; }

    /** Record a store hit for point @p index. */
    void serve(std::size_t index, PointResult result)
    {
        report_.results[index] = std::move(result);
        report_.sources[index] = PointSource::kCache;
        ++report_.cache_hits;
    }

    /**
     * Record finished point @p index (any terminal status): put it
     * into the store -- a failed write (full disk, injected ENOSPC)
     * is a brownout, counted and warned about, never fatal: the
     * result stays in memory and a later resume re-runs the point --
     * then report it and fire progress.  Thread-safe for distinct
     * indices.
     */
    void finish(std::size_t index, PointResult result)
    {
        const ExperimentPoint &point = points_[index];
        if (store_ != nullptr) {
            try {
                store_->put(point, opts_, result);
            } catch (const std::exception &err) {
                write_failures_.fetch_add(1);
                warn("sweep: store write for point {} failed ({}); "
                     "keeping the in-memory result",
                     point.point_id, err.what());
            }
        }
        report_.sources[index] = result.status == PointStatus::kOk
                                     ? PointSource::kFresh
                                     : PointSource::kQuarantine;
        report_.results[index] = std::move(result);
        if (progress_) {
            progress_(point, report_.results[index]);
        }
    }

    /** The finished report. */
    SweepReport takeReport()
    {
        report_.storage_write_failures = write_failures_.load();
        report_.stopped = report_.counts().pending > 0;
        return std::move(report_);
    }

  private:
    const std::vector<ExperimentPoint> &points_;
    const RunnerOptions opts_;
    ResultStore *const store_;
    const Runner::ProgressFn &progress_;
    SweepReport report_;
    std::atomic<std::uint64_t> write_failures_{0};
};

/**
 * Worker threads sharing one atomic cursor over the pending points.
 * A free worker takes the next point in sweep order (greedy list
 * scheduling), so a few slow points cannot serialize the tail.
 */
void
runThreads(const std::vector<ExperimentPoint> &points,
           const std::vector<std::size_t> &pending, SweepControl &control)
{
    if (pending.empty()) {
        return;
    }
    const RunnerOptions &opts = control.options();
    const unsigned num_workers = static_cast<unsigned>(
        std::min<std::size_t>(opts.jobs, pending.size()));
    std::atomic<std::size_t> cursor{0};
    auto worker = [&] {
        // Stop boundary: after a graceful stop no new point starts;
        // unfinished points stay kNotRun.
        while (!sweepstop::stopRequested()) {
            const std::size_t slot = cursor.fetch_add(1);
            if (slot >= pending.size()) {
                return;
            }
            const std::size_t idx = pending[slot];
            PointResult result;
            try {
                result = Runner::replay(points[idx], opts);
            } catch (const AbortError &e) {
                // Abandoned by the operator / drain deadline: the
                // point stays kNotRun and out of the store, so a
                // resume re-runs it cleanly.
                warn("sweep: point {} abandoned: {}",
                     points[idx].point_id, e.what());
                return;
            }
            control.finish(idx, std::move(result));
        }
    };

    // The calling thread watches the drain deadline only when there
    // is one; otherwise --jobs 1 runs inline, with no thread at all
    // (the simplest replay / debugging environment, and the
    // determinism reference).
    const bool watch = opts.drain_deadline_sec > 0.0;
    if (num_workers == 1 && !watch) {
        worker();
        return;
    }
    std::atomic<unsigned> running{num_workers};
    std::vector<std::thread> threads;
    threads.reserve(num_workers);
    for (unsigned w = 0; w < num_workers; ++w) {
        threads.emplace_back([&] {
            worker();
            running.fetch_sub(1);
        });
    }
    // After a graceful stop the in-flight points get one drain
    // deadline; when it passes, the stop escalates to an abort: the
    // run loops notice it at their next poll and unwind with a
    // command-tail diagnostic, and the abandoned points stay kNotRun.
    std::optional<wallclock::TimePoint> deadline;
    while (watch && running.load() > 0) {
        if (sweepstop::stopRequested() && !sweepstop::abortRequested()) {
            if (!deadline) {
                deadline = wallclock::deadlineAfter(opts.drain_deadline_sec);
            } else if (wallclock::secondsSince(*deadline) >= 0.0) {
                warn("sweep: drain deadline ({:.1f}s) expired, aborting "
                     "in-flight points",
                     opts.drain_deadline_sec);
                sweepstop::requestAbort();
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    for (std::thread &t : threads) {
        t.join();
    }
}

} // namespace

ExperimentPoint
guardedPoint(const ExperimentPoint &point, const RunnerOptions &opts)
{
    ExperimentPoint guarded = point;
    if (guarded.cfg.max_cycles == 0 && opts.point_max_cycles > 0) {
        guarded.cfg.max_cycles = opts.point_max_cycles;
    }
    return guarded;
}

const char *
toString(PointStatus status)
{
    switch (status) {
      case PointStatus::kOk: return "OK";
      case PointStatus::kFailed: return "FAILED";
      case PointStatus::kTimedOut: return "TIMEOUT";
      case PointStatus::kFaulted: return "FAULTED";
      case PointStatus::kNotRun: return "NOT-RUN";
    }
    return "?";
}

int
sweepExitCode(const std::vector<PointResult> &results)
{
    bool violated = false;
    bool hung = false;
    bool quarantined = false;
    bool pending = false;
    for (const PointResult &r : results) {
        if (r.status == PointStatus::kNotRun) {
            pending = true;
            continue;
        }
        if (r.status == PointStatus::kOk) {
            continue;
        }
        quarantined = true;
        if (r.outcome == OutcomeClass::kViolated) {
            violated = true;
        } else if (r.outcome == OutcomeClass::kHung) {
            hung = true;
        }
    }
    if (violated) {
        return sweepstop::kViolatedExit;
    }
    if (hung) {
        return sweepstop::kHungExit;
    }
    if (quarantined) {
        return sweepstop::kQuarantinedExit;
    }
    if (pending) {
        return sweepstop::kResumableExit;
    }
    return 0;
}

Runner::Runner(RunnerOptions opts) : opts_(opts) {}

unsigned
Runner::jobs() const
{
    if (opts_.jobs > 0) {
        return opts_.jobs;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

SweepCounts
SweepReport::counts() const
{
    SweepCounts counts;
    counts.total = sources.size();
    for (PointSource source : sources) {
        counts.pending += source == PointSource::kPending ? 1 : 0;
        counts.cached += source == PointSource::kCache ? 1 : 0;
        counts.done += source == PointSource::kFresh ? 1 : 0;
        counts.quarantined += source == PointSource::kQuarantine ? 1 : 0;
    }
    counts.done += counts.cached;
    return counts;
}

std::vector<PointResult>
Runner::run(const std::vector<ExperimentPoint> &points,
            const ProgressFn &progress) const
{
    return sweep(points, nullptr, progress).results;
}

SweepReport
Runner::sweep(const std::vector<ExperimentPoint> &points,
              ResultStore *store, const ProgressFn &progress) const
{
    RunnerOptions opts = opts_;
    opts.jobs = jobs();
    SweepControl control(points, opts, store, progress);

    // Serve finished points from the store; the threads run the rest.
    std::vector<std::size_t> pending;
    pending.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::optional<PointResult> hit =
            store != nullptr ? store->lookup(points[i], opts)
                             : std::nullopt;
        if (hit) {
            control.serve(i, std::move(*hit));
        } else {
            pending.push_back(i);
        }
    }
    runThreads(points, pending, control);
    return control.takeReport();
}

PointResult
Runner::replay(const ExperimentPoint &point, const RunnerOptions &opts)
{
    const auto start = wallclock::now();

    ExperimentPoint guarded = guardedPoint(point, opts);

    PointResult result;
    result.point_id = point.point_id;
    result.seed = guarded.cfg.seed;

    // Fault-plan points: a VIOLATED / HUNG attempt may be retried with
    // a reseeded fault stream (deterministic: attempt n always draws
    // streamSeed(base, n)).  Fault-free points never loop.
    const bool faulted_cfg = guarded.cfg.faults.enabled();
    const std::uint64_t base_fault_seed =
        guarded.cfg.faults.seed != 0 ? guarded.cfg.faults.seed
                                     : guarded.cfg.seed;

    RunOutcome outcome;
    unsigned attempt = 0;
    for (;;) {
        ++attempt;
        outcome = tryRunWorkload(guarded.cfg, guarded.workload,
                                 /*capture_stats=*/true);
        const bool bad = outcome.outcome == OutcomeClass::kViolated ||
                         outcome.outcome == OutcomeClass::kHung;
        if (!faulted_cfg || !bad || attempt > opts.fault_retries) {
            break;
        }
        guarded.cfg.faults.seed =
            Rng::streamSeed(base_fault_seed, attempt);
    }
    result.attempts = attempt;
    result.wall_seconds = wallclock::secondsSince(start);
    result.outcome = outcome.outcome;

    if (!outcome.ok) {
        result.status =
            faulted_cfg ? PointStatus::kFaulted : PointStatus::kFailed;
        result.error = outcome.error;
        return result;
    }
    result.run = std::move(outcome.result);
    result.stats = std::move(outcome.stats);
    if (result.run.timed_out) {
        result.status =
            faulted_cfg ? PointStatus::kFaulted : PointStatus::kTimedOut;
        result.error = "hit the max_cycles guard";
    } else if (faulted_cfg &&
               outcome.outcome == OutcomeClass::kViolated) {
        result.status = PointStatus::kFaulted;
        result.error = format(
            "security violated under fault plan ({} violations, max "
            "unmitigated {})",
            result.run.violations, result.run.max_unmitigated);
    } else {
        result.status = PointStatus::kOk;
    }
    return result;
}

StatSnapshot
Runner::mergeStats(const std::vector<PointResult> &results)
{
    StatSnapshot merged;
    for (const PointResult &result : results) {
        if (result.status == PointStatus::kOk) {
            merged.merge(result.stats);
        }
    }
    return merged;
}

} // namespace mopac
