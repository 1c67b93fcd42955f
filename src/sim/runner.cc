/**
 * @file
 * Parallel runner implementation.
 *
 * Concurrency notes (the TSan preset runs the determinism test against
 * exactly this code):
 *  - Thread-pool workers claim points through one atomic cursor over
 *    the pending list; each index is handed out exactly once.
 *  - The report is pre-sized and each slot is written by exactly one
 *    worker (SweepControl::finish) before the join; the driver only
 *    reads it after join(), so the join is the only synchronization
 *    the results need.  The brownout counter is atomic.
 *  - The drain deadline is polled by the pool's coordinating thread
 *    (the thread that called sweep(), or the supervisor's event
 *    loop), so the driver itself never starts a thread: the process
 *    pool forks with no other thread alive.
 */

#include "runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/wallclock.hh"
#include "sim/result_store.hh"
#include "sim/stop.hh"

namespace mopac
{

namespace
{

/**
 * How one attempt at a point runs, given the guarded (and possibly
 * reseeded) point and the 1-based attempt number.  std::nullopt means
 * the attempt yielded at a checkpoint without a terminal state.
 */
using AttemptFn = std::function<std::optional<RunOutcome>(
    const ExperimentPoint &point, unsigned attempt)>;

/**
 * Execute @p point under @p opts into @p result: apply the cycle
 * guard, run attempts through @p run_attempt (retrying a fault-plan
 * point that classifies VIOLATED or HUNG with a reseeded fault
 * stream), then classify the last attempt.  Returns false when an
 * attempt yielded; @p result then holds only the point's identity,
 * attempts and wall time.
 */
bool
executePoint(const ExperimentPoint &point, const RunnerOptions &opts,
             const AttemptFn &run_attempt, PointResult &result)
{
    const auto start = wallclock::now();

    ExperimentPoint guarded = guardedPoint(point, opts);

    result.point_id = point.point_id;
    result.seed = guarded.cfg.seed;

    // Fault-plan points: a VIOLATED / HUNG attempt may be retried with
    // a reseeded fault stream (deterministic: attempt n always draws
    // streamSeed(base, n)).  Fault-free points never loop.
    const bool faulted_cfg = guarded.cfg.faults.enabled();
    const std::uint64_t base_fault_seed =
        guarded.cfg.faults.seed != 0 ? guarded.cfg.faults.seed
                                     : guarded.cfg.seed;

    std::optional<RunOutcome> outcome;
    unsigned attempt = 0;
    for (;;) {
        ++attempt;
        outcome = run_attempt(guarded, attempt);
        if (!outcome) {
            break;
        }
        const bool bad = outcome->outcome == OutcomeClass::kViolated ||
                         outcome->outcome == OutcomeClass::kHung;
        if (!faulted_cfg || !bad || attempt > opts.fault_retries) {
            break;
        }
        guarded.cfg.faults.seed =
            Rng::streamSeed(base_fault_seed, attempt);
    }
    result.attempts = attempt;
    result.wall_seconds = wallclock::secondsSince(start);
    if (!outcome) {
        return false;
    }
    result.outcome = outcome->outcome;

    if (!outcome->ok) {
        result.status =
            faulted_cfg ? PointStatus::kFaulted : PointStatus::kFailed;
        result.error = outcome->error;
        return true;
    }
    result.run = std::move(outcome->result);
    result.stats = std::move(outcome->stats);
    if (result.run.timed_out) {
        result.status =
            faulted_cfg ? PointStatus::kFaulted : PointStatus::kTimedOut;
        result.error = "hit the max_cycles guard";
    } else if (faulted_cfg &&
               outcome->outcome == OutcomeClass::kViolated) {
        result.status = PointStatus::kFaulted;
        result.error = format(
            "security violated under fault plan ({} violations, max "
            "unmitigated {})",
            result.run.violations, result.run.max_unmitigated);
    } else {
        result.status = PointStatus::kOk;
    }
    return true;
}

/**
 * The default pool: worker threads sharing one atomic cursor over the
 * pending points.  A free worker takes the next point in sweep order
 * (greedy list scheduling), so a few slow points cannot serialize the
 * tail.
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
        while (!control.stopping()) {
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
    while (watch && running.load() > 0) {
        if (control.stopping()) {
            control.abandon();
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

const char *
toString(PointSource source)
{
    switch (source) {
      case PointSource::kPending: return "pending";
      case PointSource::kFresh: return "fresh";
      case PointSource::kCache: return "cache";
      case PointSource::kQuarantine: return "quarantine";
    }
    return "?";
}

SweepReport
SweepReport::allPending(const std::vector<ExperimentPoint> &points)
{
    SweepReport report;
    report.results.resize(points.size());
    report.sources.assign(points.size(), PointSource::kPending);
    for (std::size_t i = 0; i < points.size(); ++i) {
        report.results[i].point_id = points[i].point_id;
        report.results[i].status = PointStatus::kNotRun;
        report.results[i].seed = points[i].cfg.seed;
        report.results[i].attempts = 0;
    }
    return report;
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

SweepControl::SweepControl(const std::vector<ExperimentPoint> &points,
                           const RunnerOptions &opts, ResultStore *store,
                           const Runner::ProgressFn &progress)
    : points_(points), opts_(opts), store_(store), progress_(progress),
      report_(SweepReport::allPending(points))
{
}

void
SweepControl::finish(std::size_t index, PointResult result)
{
    const ExperimentPoint &point = points_[index];
    // A failed store write (full disk, injected ENOSPC) must not lose
    // a finished result: keep it in memory, count the brownout, and
    // go on.  A later resume re-runs the point.
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

bool
SweepControl::stopping() const
{
    return sweepstop::stopRequested();
}

bool
SweepControl::abandon()
{
    if (!drain_deadline_) {
        drain_deadline_ =
            wallclock::deadlineAfter(opts_.drain_deadline_sec);
    }
    if (sweepstop::abortRequested()) {
        return true;
    }
    if (opts_.drain_deadline_sec <= 0.0 ||
        wallclock::secondsSince(*drain_deadline_) < 0.0) {
        return false;
    }
    // Escalate: the run loops notice the abort at their next poll and
    // unwind with a command-tail diagnostic instead of wedging the
    // exit.
    warn("sweep: drain deadline ({:.1f}s) expired, aborting in-flight "
         "points",
         opts_.drain_deadline_sec);
    sweepstop::requestAbort();
    return true;
}

std::vector<PointResult>
Runner::run(const std::vector<ExperimentPoint> &points,
            const ProgressFn &progress) const
{
    return sweep(points, nullptr, progress).results;
}

SweepReport
Runner::sweep(const std::vector<ExperimentPoint> &points,
              ResultStore *store, const ProgressFn &progress,
              SweepPool *pool) const
{
    RunnerOptions opts = opts_;
    opts.jobs = jobs();
    SweepControl control(points, opts, store, progress);

    // Serve finished points from the store; the pool runs the rest.
    std::vector<std::size_t> pending;
    pending.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::optional<PointResult> hit =
            store != nullptr ? store->lookup(points[i], opts)
                             : std::nullopt;
        if (hit) {
            control.report_.results[i] = std::move(*hit);
            control.report_.sources[i] = PointSource::kCache;
            ++control.report_.cache_hits;
        } else {
            pending.push_back(i);
        }
    }

    if (pool != nullptr) {
        pool->execute(points, pending, control);
    } else {
        runThreads(points, pending, control);
    }

    SweepReport report = std::move(control.report_);
    report.storage_write_failures = control.write_failures_.load();
    report.stopped = report.counts().pending > 0;
    return report;
}

PointResult
Runner::replay(const ExperimentPoint &point, const RunnerOptions &opts)
{
    PointResult result;
    executePoint(
        point, opts,
        [](const ExperimentPoint &guarded, unsigned) {
            return std::optional<RunOutcome>(tryRunWorkload(
                guarded.cfg, guarded.workload, /*capture_stats=*/true));
        },
        result);
    return result;
}

CheckpointedPointRun
Runner::replayCheckpointed(const ExperimentPoint &point,
                           const RunnerOptions &opts,
                           const CheckpointOptions &ckpt)
{
    CheckpointOptions run_ckpt = ckpt;
    if (!run_ckpt.restore_path.empty() &&
        !fileExists(run_ckpt.restore_path)) {
        run_ckpt.restore_path.clear();
    }

    CheckpointedPointRun out;
    CheckpointedRun chk;
    const bool finished = executePoint(
        point, opts,
        [&](const ExperimentPoint &guarded,
            unsigned attempt) -> std::optional<RunOutcome> {
            if (attempt > 1) {
                // A reseeded fault stream is a different execution:
                // the old snapshot must not leak into the retry.
                if (!ckpt.save_path.empty()) {
                    std::remove(ckpt.save_path.c_str());
                }
                run_ckpt.restore_path.clear();
            }
            RunOutcome outcome =
                tryRunWorkload(guarded.cfg, guarded.workload,
                               /*capture_stats=*/true, &run_ckpt, &chk);
            if (outcome.ok && !chk.finished) {
                // Preempted (or stop-interrupted) at a snapshot-durable
                // boundary: hand back the resumable state instead of a
                // terminal classification.
                return std::nullopt;
            }
            return outcome;
        },
        out.result);
    out.preempted = !finished;
    out.resumed_from = chk.resumed_from;
    out.executed_cycles = chk.executed_cycles;
    return out;
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
