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
 */

#include "runner.hh"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "common/log.hh"
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
                 ResultStore *store, const Runner::ProgressFn &progress)
        : points_(points), store_(store), progress_(progress)
    {
        report_.results.resize(points.size());
        report_.sources.assign(points.size(), PointSource::kPending);
        for (std::size_t i = 0; i < points.size(); ++i) {
            report_.results[i].point_id = points[i].point_id;
            report_.results[i].status = PointStatus::kNotRun;
            report_.results[i].seed = points[i].cfg.seed;
        }
    }

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
                store_->put(point, result);
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
    ResultStore *const store_;
    const Runner::ProgressFn &progress_;
    SweepReport report_;
    std::atomic<std::uint64_t> write_failures_{0};
};

/**
 * @p jobs worker threads sharing one atomic cursor over the pending
 * points.  A free worker takes the next point in sweep order (greedy
 * list scheduling), so a few slow points cannot serialize the tail.
 */
void
runThreads(const std::vector<ExperimentPoint> &points,
           const std::vector<std::size_t> &pending, unsigned jobs,
           SweepControl &control)
{
    if (pending.empty()) {
        return;
    }
    const unsigned num_workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs, pending.size()));
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
                result = Runner::replay(points[idx]);
            } catch (const AbortError &e) {
                // Abandoned by an operator abort: the point stays
                // kNotRun and out of the store, so a resume re-runs
                // it cleanly.
                warn("sweep: point {} abandoned: {}",
                     points[idx].point_id, e.what());
                return;
            }
            control.finish(idx, std::move(result));
        }
    };

    // --jobs 1 runs inline, with no thread at all (the simplest
    // replay / debugging environment, and the determinism reference).
    if (num_workers == 1) {
        worker();
        return;
    }
    std::vector<std::thread> threads;
    threads.reserve(num_workers);
    for (unsigned w = 0; w < num_workers; ++w) {
        threads.emplace_back(worker);
    }
    for (std::thread &t : threads) {
        t.join();
    }
}

} // namespace

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
    SweepControl control(points, store, progress);

    // Serve finished points from the store; the threads run the rest.
    std::vector<std::size_t> pending;
    pending.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::optional<PointResult> hit =
            store != nullptr ? store->lookup(points[i]) : std::nullopt;
        if (hit) {
            control.serve(i, std::move(*hit));
        } else {
            pending.push_back(i);
        }
    }
    runThreads(points, pending, jobs(), control);
    return control.takeReport();
}

PointResult
Runner::replay(const ExperimentPoint &point)
{
    const auto start = wallclock::now();
    RunOutcome outcome =
        tryRunWorkload(point.cfg, point.workload, /*capture_stats=*/true);

    PointResult result;
    result.point_id = point.point_id;
    result.seed = point.cfg.seed;
    result.wall_seconds = wallclock::secondsSince(start);
    result.outcome = outcome.outcome;

    // A fault-plan point that classifies VIOLATED or HUNG is
    // quarantined as kFaulted on its one run.
    const bool faulted_cfg = point.cfg.faults.enabled();
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

} // namespace mopac
