/**
 * @file
 * Parallel runner implementation.
 *
 * Concurrency notes (the TSan preset runs the determinism test against
 * exactly this code):
 *  - Workers claim points through one atomic cursor over the index
 *    list; each index is handed out exactly once.
 *  - results[] is pre-sized and each slot is written by exactly one
 *    worker before the join; readers only touch it after join(), so
 *    the join is the only synchronization the results need.
 */

#include "runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <numeric>
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

std::size_t
Runner::runPool(const std::vector<ExperimentPoint> &points,
                const std::vector<std::size_t> &order,
                std::vector<PointResult> &results, ResultStore *store,
                const ProgressFn &progress) const
{
    if (order.empty()) {
        return 0;
    }
    const unsigned num_workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs(), order.size()));

    // Every free worker takes the next point in sweep order (greedy
    // list scheduling), so a few slow points cannot serialize the tail.
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> executed{0};
    auto worker = [&] {
        for (;;) {
            // Stop boundary: a journaled sweep takes no new work after
            // a graceful stop -- unfinished points stay kNotRun and
            // re-run on resume.
            if (store != nullptr && sweepstop::stopRequested()) {
                return;
            }
            const std::size_t slot = cursor.fetch_add(1);
            if (slot >= order.size()) {
                return;
            }
            const std::size_t idx = order[slot];
            try {
                results[idx] = replay(points[idx], opts_);
            } catch (const AbortError &e) {
                if (store == nullptr) {
                    throw;
                }
                // Abandoned mid-run by the operator / drain watchdog:
                // leave the point kNotRun and out of the store so
                // resume re-runs it cleanly.
                results[idx].error = e.what();
                warn("sweep: point {} abandoned: {}",
                     points[idx].point_id, e.what());
                return;
            }
            if (store != nullptr) {
                store->put(points[idx], opts_, results[idx]);
            }
            executed.fetch_add(1);
            if (progress) {
                progress(points[idx], results[idx]);
            }
        }
    };

    if (num_workers == 1) {
        // --jobs 1: run inline, no thread at all (simplest replay /
        // debugging environment, and the determinism reference).
        worker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(num_workers);
        for (unsigned w = 0; w < num_workers; ++w) {
            threads.emplace_back(worker);
        }
        for (std::thread &t : threads) {
            t.join();
        }
    }
    return executed.load();
}

std::vector<PointResult>
Runner::run(const std::vector<ExperimentPoint> &points,
            const ProgressFn &progress) const
{
    std::vector<PointResult> results(points.size());
    std::vector<std::size_t> order(points.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    runPool(points, order, results, nullptr, progress);
    return results;
}

JournaledSweepResult
Runner::runJournaled(const std::vector<ExperimentPoint> &points,
                     const std::string &store_dir,
                     const ProgressFn &progress) const
{
    JournaledSweepResult sweep;
    sweep.results.resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        sweep.results[i].point_id = points[i].point_id;
        sweep.results[i].status = PointStatus::kNotRun;
    }
    if (points.empty()) {
        return sweep;
    }

    // Serve finished points from the store; queue the rest.
    ResultStore store(store_dir);
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (auto hit = store.lookup(points[i], opts_)) {
            sweep.results[i] = std::move(*hit);
            ++sweep.reused;
        } else {
            pending.push_back(i);
        }
    }

    std::atomic<bool> workers_done{false};

    // Drain watchdog: once a graceful stop is requested, give
    // in-flight points a bounded window, then escalate to a hard abort
    // -- the run loops notice at their next poll and unwind with a
    // command-tail diagnostic instead of wedging the exit.
    std::thread drain_monitor;
    if (opts_.drain_deadline_sec > 0.0) {
        drain_monitor = std::thread([this, &workers_done] {
            const auto tick = std::chrono::milliseconds(20);
            while (!workers_done.load() && !sweepstop::stopRequested()) {
                std::this_thread::sleep_for(tick);
            }
            const auto deadline =
                wallclock::deadlineAfter(opts_.drain_deadline_sec);
            while (!workers_done.load() &&
                   wallclock::now() < deadline) {
                std::this_thread::sleep_for(tick);
            }
            if (!workers_done.load()) {
                warn("sweep: drain deadline ({:.1f}s) expired, "
                     "aborting in-flight points",
                     opts_.drain_deadline_sec);
                sweepstop::requestAbort();
            }
        });
    }

    sweep.executed =
        runPool(points, pending, sweep.results, &store, progress);

    workers_done.store(true);
    if (drain_monitor.joinable()) {
        drain_monitor.join();
    }

    for (const PointResult &result : sweep.results) {
        if (result.status == PointStatus::kNotRun) {
            ++sweep.pending;
        }
    }
    return sweep;
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
