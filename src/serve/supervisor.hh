/**
 * @file
 * Worker-process supervision: the process pool of the sweep driver.
 *
 * Runner::sweep drives every sweep -- store hits, store writes,
 * graceful stop, the report.  The Supervisor is the SweepPool that
 * executes the driver's pending points on fork()ed worker processes
 * (RunnerOptions::jobs of them) and keeps the sweep alive through
 * every worker-side failure mode:
 *
 *  - CRASH: a worker that exits or dies on a signal mid-point is
 *    detected via waitpid; its in-flight point is rescheduled.
 *  - HANG: a worker that stops making progress (SIGSTOP, runaway
 *    simulation past the per-point deadline, silent idle worker) is
 *    SIGKILLed by the watchdog and its point rescheduled.  This is
 *    the process-level analogue of the in-sim forward-progress
 *    watchdog: the simulator catches livelocks *inside* a point, the
 *    supervisor catches dead *processes*.  A worker the supervisor
 *    SIGSTOPs itself (chaos, scripted failures) is written off at
 *    once: whatever it wrote before the signal landed is dropped, so
 *    the hang-kill is its only possible outcome.
 *  - RETRY/BACKOFF: each reschedule is delayed by deterministic
 *    jittered exponential backoff -- the jitter comes from a
 *    counter-mode RNG stream keyed by (backoff_seed, point_id,
 *    attempt), so the full retry schedule of a point is a pure
 *    function of the failure history, identical at any worker count.
 *  - QUARANTINE: a point whose worker dies max_strikes times is
 *    quarantined with a synthesized kFailed result (outcome kHung
 *    when the watchdog did the killing), which the driver stores as
 *    a replay artifact exactly like an in-process crash on the
 *    thread pool.
 *
 * Determinism: a point's simulation seed does not depend on the
 * attempt number or the worker that runs it, so a rerun after a
 * worker SIGKILL is bit-identical to a clean first run -- the final
 * manifest of a chaos-ridden sweep equals the clean serial one.
 *
 * The supervisor is single-threaded (poll-based event loop) and the
 * driver starts no thread of its own, which keeps fork() safe under
 * TSAN.
 */

#ifndef MOPAC_SERVE_SUPERVISOR_HH
#define MOPAC_SERVE_SUPERVISOR_HH

#include <csignal>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/wallclock.hh"
#include "serve/protocol.hh"
#include "sim/runner.hh"

namespace mopac::serve
{

/** Injected failure action for deterministic supervision tests. */
enum class FailAction : std::uint8_t
{
    kKillWorker, //!< SIGKILL the worker when this attempt starts.
    kStopWorker, //!< SIGSTOP it (watchdog must hang-kill it).
    /**
     * Reply kPreempt at the attempt's first checkpoint rendezvous:
     * the worker yields the point at a snapshot-durable boundary and
     * it is requeued (no strike, no backoff).
     */
    kPreemptPoint,
    /**
     * SIGKILL the worker while it is blocked at its first checkpoint
     * rendezvous.  Because the worker waits for the verdict before
     * executing past the snapshot, the kill lands at exactly the
     * checkpointed cycle -- the retry resumes with zero lost work.
     */
    kKillAtCheckpoint,
};

/**
 * Supervision tuning knobs.  The pool size (RunnerOptions::jobs) and
 * the drain deadline belong to the driver's RunnerOptions.
 */
struct SupervisorOptions
{
    /** Quarantine a point after this many failed attempts. */
    unsigned max_strikes = 3;
    /** Idle worker heartbeat period, seconds. */
    double heartbeat_sec = 0.5;
    /** Per-point deadline before a busy worker is hang-killed. */
    double hang_timeout_sec = 300.0;
    /** Backoff base delay (attempt 1 -> base, doubling after). */
    double backoff_base_sec = 0.05;
    /** Backoff ceiling, seconds. */
    double backoff_cap_sec = 2.0;
    /** Counter-mode seed of the backoff jitter streams. */
    std::uint64_t backoff_seed = 0x6d6f706163736572ull;
    /** Checkpoint cadence in simulated cycles (0 = off). */
    std::uint64_t checkpoint_every = 0;
    /**
     * Directory for per-point checkpoint files ("" = preemption off).
     * With checkpoint_every > 0, every assignment carries
     * <dir>/<point_id>.ckpt: workers snapshot there each interval and
     * rendezvous for a verdict, retries resume from the file, and the
     * supervisor deletes it when the point resolves.
     */
    std::string checkpoint_dir;

    // Chaos injection (bench/chaos_soak kWorkerKill, smoke tests).
    // Decisions are drawn per (point, attempt) from counter-mode
    // streams of chaos_seed, so they are worker-count invariant.
    /** P(SIGKILL the worker right after it starts an attempt). */
    double chaos_kill_rate = 0.0;
    /** P(SIGSTOP instead -- exercises the hang watchdog). */
    double chaos_stop_rate = 0.0;
    /** Seed of the chaos decision streams. */
    std::uint64_t chaos_seed = 0x63686f6b696c6cull;
};

/** One reschedule decision (retry-trace row). */
struct RetryRecord
{
    /** The attempt that failed (1-based). */
    std::uint32_t attempt = 0;
    /** Backoff delay applied before the next attempt, seconds. */
    double delay_sec = 0.0;
    /** Why: "crash" (exit/signal) or "hang" (watchdog kill). */
    std::string reason;
};

/**
 * What only the process pool knows about its last execute(); the
 * results, sources and store counters are in the driver's
 * SweepReport.
 */
struct SupervisorStats
{
    /**
     * Retry trace: point_id -> ordered reschedule decisions.  A pure
     * function of (seeds, injected failure schedule), so two runs
     * with equal seeds and schedules produce byte-equal traces at
     * ANY worker count -- the determinism tests diff exactly this.
     */
    std::map<std::uint64_t, std::vector<RetryRecord>> retries;
    /** Workers forked over the sweep's lifetime. */
    std::uint64_t workers_forked = 0;
    /** Worker deaths observed (crash + chaos kills). */
    std::uint64_t workers_crashed = 0;
    /** Workers SIGKILLed by the hang/heartbeat watchdogs. */
    std::uint64_t workers_hung_killed = 0;
    /** Points preempted at a checkpoint rendezvous. */
    std::uint64_t points_preempted = 0;
    /**
     * Simulated cycles executed across every attempt, counting only
     * checkpoint-durable work for attempts that died.  This minus the
     * sum of final per-point run cycles is the work re-run after
     * failures -- bounded by one checkpoint interval per mid-interval
     * death, and exactly zero for preemptions and checkpoint kills.
     */
    std::uint64_t cycles_executed = 0;
    /** point_id -> cycle the result-producing attempt resumed from
     *  (0 = ran fresh; only points executed by workers appear). */
    std::map<std::uint64_t, std::uint64_t> resumed_from;
};

/** Runs sweep points on supervised worker processes; see file comment. */
class Supervisor final : public SweepPool
{
  public:
    explicit Supervisor(SupervisorOptions opts);
    ~Supervisor() override;

    Supervisor(const Supervisor &) = delete;
    Supervisor &operator=(const Supervisor &) = delete;

    /**
     * Inject a deterministic failure schedule: when the mapped
     * (point_id, attempt) starts on a worker, apply the action.
     * Supervision tests use this to script exact failure histories.
     */
    void setFailSchedule(
        std::map<std::pair<std::uint64_t, std::uint32_t>, FailAction>
            schedule)
    {
        fail_schedule_ = std::move(schedule);
    }

    /**
     * The backoff delay before retrying @p point_id after failed
     * attempt @p attempt: capped exponential with jitter from the
     * (backoff_seed, point_id, attempt) counter-mode stream.
     */
    double backoffDelay(std::uint64_t point_id,
                        std::uint32_t attempt) const;

    /**
     * SweepPool: run the pending points on control.options().jobs
     * workers until each resolved or the driver says stop.  Progress
     * fires from this thread.
     */
    void execute(const std::vector<ExperimentPoint> &points,
                 const std::vector<std::size_t> &pending,
                 SweepControl &control) override;

    /** Process-level counters of the last (or running) execute(). */
    const SupervisorStats &stats() const { return stats_; }

  private:
    struct Slot;
    struct Pending;

    void spawnWorker(Slot &slot);
    void killWorker(Slot &slot, int sig = SIGKILL);
    void assignReady(wallclock::TimePoint now);
    void handleMessage(Slot &slot);
    std::string checkpointPath(std::uint64_t point_id) const;
    void applyChaos(Slot &slot);
    void onWorkerDeath(Slot &slot, bool hang);
    void resolve(std::size_t index, PointResult result);
    void requeue(std::size_t index, std::uint32_t failed_attempt,
                 const char *reason, double delay_sec);
    void retireWorkers();

    SupervisorOptions opts_;
    std::map<std::pair<std::uint64_t, std::uint32_t>, FailAction>
        fail_schedule_;
    SupervisorStats stats_;

    // Live sweep state (valid during execute()).
    const std::vector<ExperimentPoint> *points_ = nullptr;
    SweepControl *control_ = nullptr;
    std::vector<Slot> slots_;
    std::vector<Pending> pending_;
    std::vector<std::uint32_t> strikes_;
    std::size_t unresolved_ = 0;
};

} // namespace mopac::serve

#endif // MOPAC_SERVE_SUPERVISOR_HH
