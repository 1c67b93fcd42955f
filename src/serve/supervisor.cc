/**
 * @file
 * Worker supervision implementation.
 */

#include "supervisor.hh"

#include <algorithm>
#include <csignal>
#include <cstdio>

#include <unistd.h>

#include "common/log.hh"
#include "common/rng.hh"
#include "serve/io.hh"
#include "serve/worker.hh"
#include "sim/stop.hh"

namespace mopac::serve
{

/** One worker process slot. */
struct Supervisor::Slot
{
    pid_t pid = -1;
    int fd = -1;
    bool busy = false;
    bool hang_killed = false; //!< Watchdog (not chaos/crash) kill.
    /** SIGKILL sent: the death is certain, so whatever the worker
     *  wrote before it landed (a kPointDone racing a scheduled kill)
     *  is dropped and the in-flight point counts as crashed. */
    bool killed = false;
    std::size_t index = 0;    //!< In-flight point (when busy).
    std::uint32_t attempt = 0;
    /** Cycles the in-flight attempt had executed at its last durable
     *  checkpoint (what survives if the worker dies now). */
    std::uint64_t last_executed = 0;
    wallclock::TimePoint last_beat;
    wallclock::TimePoint busy_since;

    bool alive() const { return pid > 0; }
};

/** One not-yet-assigned (point, attempt) with its ready time. */
struct Supervisor::Pending
{
    std::size_t index = 0;
    std::uint32_t attempt = 1;
    wallclock::TimePoint ready;
};

int
SupervisorReport::exitCode() const
{
    return sweepExitCode(results);
}

JobCounts
SupervisorReport::counts() const
{
    JobCounts counts;
    counts.total = sources.size();
    for (PointSource source : sources) {
        switch (source) {
          case PointSource::kPending:
            ++counts.pending;
            break;
          case PointSource::kFresh:
            ++counts.done;
            break;
          case PointSource::kCache:
            ++counts.done;
            ++counts.cached;
            break;
          case PointSource::kQuarantine:
            ++counts.quarantined;
            break;
        }
    }
    return counts;
}

SupervisorReport
SupervisorReport::allPending(const std::vector<ExperimentPoint> &points)
{
    SupervisorReport report;
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

JobPhase
SupervisorReport::phase() const
{
    const JobCounts c = counts();
    if (c.pending > 0) {
        return JobPhase::kRunning;
    }
    return c.quarantined > 0 ? JobPhase::kDegraded
                             : JobPhase::kComplete;
}

Supervisor::Supervisor(SupervisorOptions opts) : opts_(std::move(opts))
{
    if (opts_.workers == 0) {
        opts_.workers = 1;
    }
    if (opts_.max_strikes == 0) {
        opts_.max_strikes = 1;
    }
}

Supervisor::~Supervisor()
{
    // Backstop only: run() retires its workers.  Never leak children.
    for (Slot &slot : slots_) {
        if (slot.alive()) {
            ::kill(slot.pid, SIGKILL);
            closeQuiet(slot.fd);
            reapChild(slot.pid);
        }
    }
}

double
Supervisor::backoffDelay(std::uint64_t point_id,
                         std::uint32_t attempt) const
{
    const unsigned shift =
        attempt >= 17 ? 16 : static_cast<unsigned>(attempt - 1);
    double expo = opts_.backoff_base_sec *
                  static_cast<double>(1ull << shift);
    expo = std::min(expo, opts_.backoff_cap_sec);
    // Jitter stream keyed by (seed, point, attempt): reproducible at
    // any worker count, decorrelated across points and attempts.
    Rng rng = Rng::forStream(
        Rng::streamSeed(opts_.backoff_seed, point_id), attempt);
    return expo * (0.5 + rng.uniform());
}

void
Supervisor::spawnWorker(Slot &slot)
{
    const SocketPair pair = makeSocketPair();
    const pid_t pid = ::fork();
    if (pid < 0) {
        closeQuiet(pair.supervisor_fd);
        closeQuiet(pair.worker_fd);
        throw IoError("fork failed");
    }
    if (pid == 0) {
        // Worker child: drop every supervisor-side fd, run any
        // embedder teardown (the daemon closes its sockets here),
        // then serve assignments until retired.  _exit, never
        // return: a forked child must not unwind gtest / atexit
        // state it shares with the parent image.
        closeQuiet(pair.supervisor_fd);
        for (const Slot &other : slots_) {
            closeQuiet(other.fd);
        }
        if (child_setup_) {
            child_setup_();
        }
        ::_exit(workerMain(pair.worker_fd, opts_.heartbeat_sec));
    }
    closeQuiet(pair.worker_fd);
    slot.pid = pid;
    slot.fd = pair.supervisor_fd;
    slot.busy = false;
    slot.hang_killed = false;
    slot.killed = false;
    slot.last_beat = wallclock::now();
    ++report_->workers_forked;
}

void
Supervisor::killWorker(Slot &slot)
{
    if (slot.alive()) {
        ::kill(slot.pid, SIGKILL);
        slot.killed = true;
    }
}

std::string
Supervisor::checkpointPath(std::uint64_t point_id) const
{
    if (opts_.checkpoint_dir.empty() ||
        opts_.job.checkpoint_every == 0) {
        return "";
    }
    return format("{}/{}.ckpt", opts_.checkpoint_dir, point_id);
}

void
Supervisor::dropCheckpoint(std::uint64_t point_id) const
{
    const std::string path = checkpointPath(point_id);
    if (!path.empty()) {
        std::remove(path.c_str());
    }
}

void
Supervisor::resolve(std::size_t index, const PointResult &result,
                    PointSource source)
{
    report_->results[index] = result;
    report_->sources[index] = source;
    MOPAC_ASSERT(unresolved_ > 0);
    --unresolved_;
    if (progress_ && *progress_) {
        (*progress_)((*points_)[index], result);
    }
}

void
Supervisor::persist(std::size_t index, const PointResult &result)
{
    const ExperimentPoint &point = (*points_)[index];
    // Storage failures (full disk, injected ENOSPC) must not lose a
    // finished result: keep it in memory, count the brownout, and let
    // the sweep keep serving.  A later resume re-runs the point.
    if (store_) {
        try {
            store_->put(point, runnerOptions(opts_.job), result);
        } catch (const std::exception &err) {
            ++report_->storage_write_failures;
            warn("supervisor: store write for point {} failed ({}); "
                 "serving the in-memory result",
                 point.point_id, err.what());
        }
    }
    dropCheckpoint(point.point_id);
}

void
Supervisor::resolveFresh(std::size_t index, const PointResult &result)
{
    persist(index, result);
    resolve(index, result,
            result.status == PointStatus::kOk
                ? PointSource::kFresh
                : PointSource::kQuarantine);
}

void
Supervisor::quarantine(std::size_t index, std::uint32_t attempts,
                       bool hang)
{
    const ExperimentPoint &point = (*points_)[index];
    PointResult result;
    result.point_id = point.point_id;
    result.status = PointStatus::kFailed;
    result.seed = point.cfg.seed;
    result.attempts = attempts;
    result.outcome = hang ? OutcomeClass::kHung : OutcomeClass::kOk;
    result.error =
        format("worker {} on all {} attempts; quarantined "
               "(replay with --replay {})",
               hang ? "hung" : "died", attempts, point.point_id);
    warn("supervisor: point {} quarantined: {}", point.point_id,
         result.error);
    persist(index, result);
    resolve(index, result, PointSource::kQuarantine);
}

void
Supervisor::reschedule(std::size_t index,
                       std::uint32_t failed_attempt, bool hang)
{
    const std::uint64_t point_id = (*points_)[index].point_id;
    const double delay = backoffDelay(point_id, failed_attempt);
    RetryRecord record;
    record.attempt = failed_attempt;
    record.delay_sec = delay;
    record.reason = hang ? "hang" : "crash";
    report_->retries[point_id].push_back(record);
    Pending pending;
    pending.index = index;
    pending.attempt = failed_attempt + 1;
    pending.ready = wallclock::deadlineAfter(delay);
    pending_.push_back(pending);
}

void
Supervisor::onWorkerDeath(Slot &slot, bool hang)
{
    if (hang) {
        ++report_->workers_hung_killed;
    } else {
        ++report_->workers_crashed;
    }
    closeQuiet(slot.fd);
    slot.fd = -1;
    slot.pid = -1;
    if (!slot.busy) {
        return; // Idle death: nothing in flight, just respawn later.
    }
    slot.busy = false;
    // Only the work up to the last durable checkpoint survives the
    // death; that is what the retry resumes from, so that is what the
    // executed-cycle ledger credits this attempt with.
    report_->cycles_executed += slot.last_executed;
    slot.last_executed = 0;
    const std::size_t index = slot.index;
    ++strikes_[index];
    if (strikes_[index] >= opts_.max_strikes) {
        quarantine(index, strikes_[index], hang);
    } else {
        reschedule(index, slot.attempt, hang);
    }
}

void
Supervisor::applyChaos(Slot &slot)
{
    const std::uint64_t point_id = (*points_)[slot.index].point_id;
    const auto it =
        fail_schedule_.find({point_id, slot.attempt});
    if (it != fail_schedule_.end()) {
        // Checkpoint-phase actions fire from the rendezvous handler,
        // not at point start.
        if (it->second == FailAction::kKillWorker) {
            killWorker(slot);
        } else if (it->second == FailAction::kStopWorker) {
            ::kill(slot.pid, SIGSTOP);
        }
        return;
    }
    if (opts_.chaos_kill_rate <= 0.0 && opts_.chaos_stop_rate <= 0.0) {
        return;
    }
    Rng rng = Rng::forStream(
        Rng::streamSeed(opts_.chaos_seed, point_id), slot.attempt);
    const double u = rng.uniform();
    if (u < opts_.chaos_kill_rate) {
        killWorker(slot);
    } else if (u < opts_.chaos_kill_rate + opts_.chaos_stop_rate) {
        ::kill(slot.pid, SIGSTOP);
    }
}

void
Supervisor::assignReady(wallclock::TimePoint now)
{
    for (Slot &slot : slots_) {
        if (!slot.alive() || slot.busy) {
            continue;
        }
        // First pending item whose backoff delay has expired, in
        // queue order (initial points first, retries as they ripen).
        auto it = std::find_if(
            pending_.begin(), pending_.end(),
            [now](const Pending &p) { return p.ready <= now; });
        if (it == pending_.end()) {
            return;
        }
        const Pending item = *it;
        pending_.erase(it);

        Assignment assignment;
        assignment.attempt = item.attempt;
        assignment.opts = opts_.job;
        assignment.ckpt_path =
            checkpointPath((*points_)[item.index].point_id);
        assignment.point = (*points_)[item.index];
        Serializer ser;
        saveAssignment(ser, assignment);
        bool sent = false;
        try {
            sent = sendMessage(slot.fd, ser, MsgType::kAssign,
                               10.0) == IoStatus::kOk;
        } catch (const IoError &) {
            sent = false;
        }
        if (!sent) {
            // Worker is wedged or gone: give the item back and let
            // the reaper / watchdog recycle the slot.
            pending_.insert(pending_.begin(), item);
            killWorker(slot);
            continue;
        }
        slot.busy = true;
        slot.index = item.index;
        slot.attempt = item.attempt;
        slot.last_executed = 0;
        slot.busy_since = now;
        slot.last_beat = now;
    }
}

void
Supervisor::handleMessage(Slot &slot)
{
    ReceivedMessage msg;
    try {
        // The fd polled readable, so the frame head is here; a frame
        // must then complete promptly or the worker is broken.
        msg = recvMessage(slot.fd, 5.0);
    } catch (const std::exception &err) {
        warn("supervisor: bad frame from worker {}: {}", slot.pid,
             err.what());
        killWorker(slot);
        return;
    }
    if (msg.status != IoStatus::kOk || slot.killed) {
        // kPeerClosed: the reaper collects the death.  kTimeout: a
        // spurious wakeup; nothing to do.  Killed: see Slot::killed.
        return;
    }
    const auto now = wallclock::now();
    slot.last_beat = now;
    try {
        switch (msg.type) {
          case MsgType::kHeartbeat:
            break;
          case MsgType::kPointStart: {
            const PointEvent event = loadPointEvent(*msg.payload);
            msg.payload->finish();
            if (!slot.busy ||
                (*points_)[slot.index].point_id != event.point_id) {
                throw SerializeError(format(
                    "unexpected start of point {}", event.point_id));
            }
            // The hang clock starts when simulation actually starts.
            slot.busy_since = now;
            applyChaos(slot);
            break;
          }
          case MsgType::kPointDone: {
            const PointEvent event = loadPointEvent(*msg.payload);
            const PointResult result =
                loadPointResult(*msg.payload);
            msg.payload->finish();
            if (!slot.busy ||
                (*points_)[slot.index].point_id != event.point_id) {
                throw SerializeError(format(
                    "unexpected completion of point {}",
                    event.point_id));
            }
            const std::size_t index = slot.index;
            slot.busy = false;
            slot.last_executed = 0;
            report_->cycles_executed += event.executed_cycles;
            report_->resumed_from[event.point_id] = event.resumed_from;
            resolveFresh(index, result);
            break;
          }
          case MsgType::kCheckpointed: {
            const PointEvent event = loadPointEvent(*msg.payload);
            msg.payload->finish();
            if (!slot.busy ||
                (*points_)[slot.index].point_id != event.point_id) {
                throw SerializeError(format(
                    "unexpected checkpoint of point {}",
                    event.point_id));
            }
            // A checkpoint is a progress proof, not just a liveness
            // beat: restart the per-point hang clock too.
            slot.busy_since = now;
            slot.last_executed = event.executed_cycles;
            const auto it = fail_schedule_.find(
                {event.point_id, slot.attempt});
            if (it != fail_schedule_.end() &&
                it->second == FailAction::kKillAtCheckpoint) {
                // The worker is blocked awaiting this verdict, so the
                // kill lands at exactly the checkpointed cycle.
                killWorker(slot);
                break;
            }
            const bool preempt =
                stopping_ ||
                (it != fail_schedule_.end() &&
                 it->second == FailAction::kPreemptPoint);
            sendEmptyMessage(slot.fd,
                             preempt ? MsgType::kPreempt
                                     : MsgType::kCheckpointAck,
                             10.0);
            break;
          }
          case MsgType::kPointPreempted: {
            const PointEvent event = loadPointEvent(*msg.payload);
            msg.payload->finish();
            if (!slot.busy ||
                (*points_)[slot.index].point_id != event.point_id) {
                throw SerializeError(format(
                    "unexpected preemption of point {}",
                    event.point_id));
            }
            const std::size_t index = slot.index;
            slot.busy = false;
            slot.last_executed = 0;
            report_->cycles_executed += event.executed_cycles;
            ++report_->points_preempted;
            if (!stopping_) {
                // Voluntary yield: requeue immediately, no strike and
                // no backoff -- the checkpoint makes the re-run cheap.
                RetryRecord record;
                record.attempt = slot.attempt;
                record.delay_sec = 0.0;
                record.reason = "preempt";
                report_->retries[event.point_id].push_back(record);
                Pending pending;
                pending.index = index;
                pending.attempt = slot.attempt + 1;
                pending.ready = now;
                pending_.push_back(pending);
            }
            // When stopping the point stays kPending; its checkpoint
            // file resumes it on the next run.
            break;
          }
          default:
            throw SerializeError(
                format("unexpected worker message type {}",
                       static_cast<std::uint64_t>(msg.type)));
        }
    } catch (const std::exception &err) {
        warn("supervisor: worker {} protocol error: {}", slot.pid,
             err.what());
        killWorker(slot);
    }
}

void
Supervisor::retireWorkers(bool force)
{
    for (Slot &slot : slots_) {
        if (!slot.alive()) {
            continue;
        }
        if (force || slot.busy) {
            killWorker(slot);
        } else {
            try {
                sendEmptyMessage(slot.fd, MsgType::kRetire, 1.0);
            } catch (const IoError &) {
                killWorker(slot);
            }
        }
    }
    // Collect the exits; SIGKILL stragglers past the grace period.
    auto grace = wallclock::deadlineAfter(3.0);
    bool escalated = force;
    for (;;) {
        bool any_alive = false;
        std::vector<int> fds;
        for (Slot &slot : slots_) {
            if (!slot.alive()) {
                continue;
            }
            const ChildStatus status = reapChild(slot.pid);
            if (status.exited) {
                closeQuiet(slot.fd);
                slot.fd = -1;
                slot.pid = -1;
                continue;
            }
            any_alive = true;
            fds.push_back(slot.fd);
        }
        if (!any_alive) {
            return;
        }
        if (wallclock::secondsSince(grace) >= 0.0) {
            if (escalated) {
                // SIGKILL cannot be ignored; give the kernel another
                // grace period rather than abandoning zombies.
                grace = wallclock::deadlineAfter(3.0);
            } else {
                for (Slot &slot : slots_) {
                    killWorker(slot);
                }
                escalated = true;
                grace = wallclock::deadlineAfter(3.0);
            }
        }
        waitAnyReadable(fds, 0.05); // Doubles as the retry sleep.
    }
}

SupervisorReport
Supervisor::run(const std::vector<ExperimentPoint> &points,
                const ProgressFn &progress, const PumpFn &pump)
{
    SupervisorReport report = SupervisorReport::allPending(points);

    points_ = &points;
    report_ = &report;
    progress_ = &progress;
    pending_.clear();
    strikes_.assign(points.size(), 0);
    unresolved_ = points.size();
    stopping_ = false;

    if (!opts_.checkpoint_dir.empty() &&
        opts_.job.checkpoint_every > 0) {
        ensureDir(opts_.checkpoint_dir);
    }

    // Serve finished points from the store; only the remainder is
    // scheduled onto workers.
    const RunnerOptions ropts = runnerOptions(opts_.job);
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (store_) {
            if (auto hit = store_->lookup(points[i], ropts)) {
                ++report.cache_hits;
                resolve(i, *hit, PointSource::kCache);
                continue;
            }
        }
        Pending pending;
        pending.index = i;
        pending.attempt = 1;
        pending.ready = wallclock::now();
        pending_.push_back(pending);
    }

    slots_.clear();
    slots_.resize(opts_.workers);

    const double idle_beat_grace =
        std::max(4.0 * opts_.heartbeat_sec, 2.0);
    auto drain_deadline = wallclock::now();

    while (unresolved_ > 0) {
        const auto now = wallclock::now();

        if (!stopping_ && sweepstop::stopRequested()) {
            stopping_ = true;
            pending_.clear(); // Unstarted points stay kPending.
            drain_deadline = wallclock::deadlineAfter(
                opts_.drain_deadline_sec > 0.0
                    ? opts_.drain_deadline_sec
                    : 3600.0);
        }
        if (stopping_) {
            const bool abort =
                sweepstop::abortRequested() ||
                wallclock::secondsSince(drain_deadline) >= 0.0;
            bool any_busy = false;
            for (const Slot &slot : slots_) {
                any_busy = any_busy || (slot.alive() && slot.busy);
            }
            if (!any_busy || abort) {
                break;
            }
        }

        // Keep the pool at strength while there is work for it.
        const std::size_t want = std::min<std::size_t>(
            opts_.workers, stopping_ ? 0 : unresolved_);
        std::size_t alive = 0;
        for (const Slot &slot : slots_) {
            alive += slot.alive() ? 1 : 0;
        }
        for (Slot &slot : slots_) {
            if (alive >= want) {
                break;
            }
            if (!slot.alive()) {
                spawnWorker(slot);
                ++alive;
            }
        }

        if (!stopping_) {
            assignReady(now);
        }

        std::vector<int> fds;
        fds.reserve(slots_.size());
        for (const Slot &slot : slots_) {
            fds.push_back(slot.alive() ? slot.fd : -1);
        }
        for (std::size_t ready : waitAnyReadable(fds, 0.05)) {
            // waitAnyReadable skips -1 fds but reports original
            // indices, so `ready` maps straight onto slots_.
            if (slots_[ready].alive()) {
                handleMessage(slots_[ready]);
            }
        }

        for (Slot &slot : slots_) {
            if (!slot.alive()) {
                continue;
            }
            const ChildStatus status = reapChild(slot.pid);
            if (status.exited) {
                onWorkerDeath(slot, slot.hang_killed);
                continue;
            }
            // Watchdogs: a busy worker gets the per-point deadline, an
            // idle one must keep its heartbeat.
            const double quiet =
                wallclock::secondsSince(slot.last_beat);
            const bool hung =
                slot.busy
                    ? (opts_.hang_timeout_sec > 0.0 &&
                       wallclock::secondsSince(slot.busy_since) >
                           opts_.hang_timeout_sec)
                    : quiet > idle_beat_grace;
            if (hung && !slot.hang_killed) {
                warn("supervisor: worker {} hung ({}); killing",
                     slot.pid,
                     slot.busy ? "point deadline" : "no heartbeat");
                slot.hang_killed = true;
                killWorker(slot);
            }
        }

        if (pump) {
            pump();
        }
    }

    report.stopped = unresolved_ > 0;
    retireWorkers(sweepstop::abortRequested());

    points_ = nullptr;
    report_ = nullptr;
    progress_ = nullptr;
    pending_.clear();
    return report;
}

} // namespace mopac::serve
