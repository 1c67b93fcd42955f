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
#include "sim/result_store.hh"

namespace mopac::serve
{

/** One worker process slot. */
struct Supervisor::Slot
{
    pid_t pid = -1;
    int fd = -1;
    bool busy = false;
    bool hang_killed = false; //!< Watchdog (not chaos/crash) kill.
    /** SIGKILL or SIGSTOP sent: whatever the worker wrote before the
     *  signal landed (a kPointDone racing a scheduled kill or stop)
     *  is dropped, so its death -- for a stopped worker the hang
     *  watchdog's kill -- is the only way the in-flight point ends. */
    bool silenced = false;
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

Supervisor::Supervisor(SupervisorOptions opts) : opts_(std::move(opts))
{
    if (opts_.max_strikes == 0) {
        opts_.max_strikes = 1;
    }
}

Supervisor::~Supervisor()
{
    // Backstop only: execute() retires its workers.  Never leak
    // children.
    retireWorkers();
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
        // Worker child: drop every supervisor-side fd, then serve
        // assignments until retired.  _exit, never return: a forked
        // child must not unwind gtest / atexit state it shares with
        // the parent image.
        closeQuiet(pair.supervisor_fd);
        for (const Slot &other : slots_) {
            closeQuiet(other.fd);
        }
        ::_exit(workerMain(pair.worker_fd, opts_.heartbeat_sec));
    }
    closeQuiet(pair.worker_fd);
    slot = Slot{};
    slot.pid = pid;
    slot.fd = pair.supervisor_fd;
    slot.last_beat = wallclock::now();
    ++stats_.workers_forked;
}

void
Supervisor::killWorker(Slot &slot, int sig)
{
    if (slot.alive()) {
        ::kill(slot.pid, sig);
        slot.silenced = true;
    }
}

std::string
Supervisor::checkpointPath(std::uint64_t point_id) const
{
    if (opts_.checkpoint_dir.empty() || opts_.checkpoint_every == 0) {
        return "";
    }
    return format("{}/{}.ckpt", opts_.checkpoint_dir, point_id);
}

void
Supervisor::resolve(std::size_t index, PointResult result)
{
    MOPAC_ASSERT(unresolved_ > 0);
    --unresolved_;
    control_->finish(index, std::move(result));
    // Stored (or kept in memory): the checkpoint has served its turn.
    const std::string ckpt =
        checkpointPath((*points_)[index].point_id);
    if (!ckpt.empty()) {
        std::remove(ckpt.c_str());
    }
}

void
Supervisor::requeue(std::size_t index, std::uint32_t failed_attempt,
                    const char *reason, double delay_sec)
{
    stats_.retries[(*points_)[index].point_id].push_back(
        {failed_attempt, delay_sec, reason});
    pending_.push_back({index, failed_attempt + 1,
                        wallclock::deadlineAfter(delay_sec)});
}

void
Supervisor::onWorkerDeath(Slot &slot, bool hang)
{
    if (hang) {
        ++stats_.workers_hung_killed;
    } else {
        ++stats_.workers_crashed;
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
    stats_.cycles_executed += slot.last_executed;
    slot.last_executed = 0;
    const ExperimentPoint &point = (*points_)[slot.index];
    const std::uint32_t strikes = ++strikes_[slot.index];
    if (strikes < opts_.max_strikes) {
        requeue(slot.index, slot.attempt, hang ? "hang" : "crash",
                backoffDelay(point.point_id, slot.attempt));
        return;
    }
    // Out of strikes: quarantine with a synthesized result, stored
    // by the driver as a replay artifact.
    PointResult result;
    result.point_id = point.point_id;
    result.status = PointStatus::kFailed;
    result.seed = point.cfg.seed;
    result.attempts = strikes;
    result.outcome = hang ? OutcomeClass::kHung : OutcomeClass::kOk;
    result.error =
        format("worker {} on all {} attempts; quarantined "
               "(replay with --replay {})",
               hang ? "hung" : "died", strikes, point.point_id);
    warn("supervisor: point {} quarantined: {}", point.point_id,
         result.error);
    resolve(slot.index, std::move(result));
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
            killWorker(slot, SIGSTOP);
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
        killWorker(slot, SIGSTOP);
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
        assignment.opts = control_->options();
        assignment.checkpoint_every = opts_.checkpoint_every;
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
    if (msg.status != IoStatus::kOk || slot.silenced) {
        // kPeerClosed: the reaper collects the death.  kTimeout: a
        // spurious wakeup; nothing to do.  Silenced: see the Slot.
        return;
    }
    const auto now = wallclock::now();
    slot.last_beat = now;
    if (msg.type == MsgType::kHeartbeat) {
        return;
    }
    try {
        // Every other worker message is about the in-flight point.
        const PointEvent event = loadPointEvent(*msg.payload);
        PointResult result;
        if (msg.type == MsgType::kPointDone) {
            result = loadPointResult(*msg.payload);
        }
        msg.payload->finish();
        if (!slot.busy ||
            (*points_)[slot.index].point_id != event.point_id) {
            throw SerializeError(
                format("message {} about point {}, which is not in "
                       "flight on this worker",
                       static_cast<std::uint64_t>(msg.type),
                       event.point_id));
        }
        switch (msg.type) {
          case MsgType::kPointStart:
            // The hang clock starts when simulation actually starts.
            slot.busy_since = now;
            applyChaos(slot);
            break;
          case MsgType::kPointDone:
            slot.busy = false;
            slot.last_executed = 0;
            stats_.cycles_executed += event.executed_cycles;
            stats_.resumed_from[event.point_id] = event.resumed_from;
            resolve(slot.index, std::move(result));
            break;
          case MsgType::kCheckpointed: {
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
                control_->stopping() ||
                (it != fail_schedule_.end() &&
                 it->second == FailAction::kPreemptPoint);
            sendEmptyMessage(slot.fd,
                             preempt ? MsgType::kPreempt
                                     : MsgType::kCheckpointAck,
                             10.0);
            break;
          }
          case MsgType::kPointPreempted:
            slot.busy = false;
            slot.last_executed = 0;
            stats_.cycles_executed += event.executed_cycles;
            ++stats_.points_preempted;
            // Voluntary yield: requeue at once, no strike and no
            // backoff -- the checkpoint makes the re-run cheap.  When
            // stopping, the point stays kPending and its checkpoint
            // file resumes it on the next run.
            if (!control_->stopping()) {
                requeue(slot.index, slot.attempt, "preempt", 0.0);
            }
            break;
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
Supervisor::retireWorkers()
{
    // A worker keeps no state between points, so retiring one is a
    // SIGKILL -- the same for idle, busy and SIGSTOPped workers.
    for (Slot &slot : slots_) {
        killWorker(slot);
    }
    for (Slot &slot : slots_) {
        // SIGKILL cannot be ignored, so each wait ends.
        while (slot.alive() && !reapChild(slot.pid).exited) {
            sleepFor(0.01);
        }
        closeQuiet(slot.fd);
        slot.fd = -1;
        slot.pid = -1;
    }
}

void
Supervisor::execute(const std::vector<ExperimentPoint> &points,
                    const std::vector<std::size_t> &pending,
                    SweepControl &control)
{
    stats_ = SupervisorStats{};
    points_ = &points;
    control_ = &control;
    pending_.clear();
    strikes_.assign(points.size(), 0);
    unresolved_ = pending.size();

    if (!opts_.checkpoint_dir.empty() && opts_.checkpoint_every > 0) {
        ensureDir(opts_.checkpoint_dir);
    }
    const auto start = wallclock::now();
    for (std::size_t index : pending) {
        pending_.push_back({index, 1, start});
    }

    const unsigned workers = control.options().jobs;
    slots_.clear();
    slots_.resize(workers);

    const double idle_beat_grace =
        std::max(4.0 * opts_.heartbeat_sec, 2.0);

    while (unresolved_ > 0) {
        const auto now = wallclock::now();

        // After a stop nothing new starts (unstarted points stay
        // kPending) and the in-flight points drain or are abandoned.
        const bool stopping = control.stopping();
        if (stopping) {
            bool any_busy = false;
            for (const Slot &slot : slots_) {
                any_busy = any_busy || (slot.alive() && slot.busy);
            }
            if (!any_busy || control.abandon()) {
                break;
            }
        }

        // Keep the pool at strength while there is work for it.
        const std::size_t want = std::min<std::size_t>(
            workers, stopping ? 0 : unresolved_);
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

        if (!stopping) {
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

    }

    retireWorkers();

    points_ = nullptr;
    control_ = nullptr;
    pending_.clear();
}

} // namespace mopac::serve
