/**
 * @file
 * The mopac_serve daemon: a crash-safe sweep service.
 *
 * The daemon listens on a Unix-domain socket, accepts sweep jobs,
 * executes them through the sweep driver on the Supervisor's forked,
 * supervised worker processes, and serves results -- fresh, cached,
 * or degraded:
 *
 *  - IDEMPOTENT JOBS: a job's identity is a hash over its point
 *    list, so resubmitting the same sweep re-attaches to the
 *    existing job instead of starting over.
 *  - CRASH SAFETY: the job spec is persisted (atomically) before the
 *    submit is acknowledged, and the sweep driver (Runner::sweep,
 *    with the Supervisor as its pool) puts every finished point into
 *    the result store.  SIGKILL the daemon at any instant, restart
 *    it, and every persisted job re-runs against the store: finished
 *    points are served from disk, losing at most the points that
 *    were in flight.
 *  - MEMOIZATION: the store is content-addressed (see ResultStore),
 *    so a resubmitted identical cell is served from disk without
 *    re-simulation, even across different jobs.
 *  - DEGRADED MODE: a fetch never fails just because work remains --
 *    clients get a partial manifest with per-point pending markers
 *    while the sweep runs, and a job whose points exhausted their
 *    retries completes as kDegraded with quarantined entries rather
 *    than failing the whole sweep.
 *  - SINGLE-THREADED: client sockets are pumped from the
 *    Supervisor's per-tick callback while a sweep runs, so the
 *    daemon stays responsive mid-sweep without threads (fork-safe,
 *    TSAN-clean).
 *
 * State directory layout:
 *
 *   <state>/lock                single-instance flock
 *   <state>/cache/              the ResultStore shared by all jobs
 *   <state>/jobs/<id>/spec.bin  persisted job (its point list)
 *   <state>/jobs/<id>/ckpt/     in-flight point checkpoints
 */

#ifndef MOPAC_SERVE_DAEMON_HH
#define MOPAC_SERVE_DAEMON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "serve/supervisor.hh"
#include "sim/result_store.hh"

namespace mopac::serve
{

/** Daemon configuration. */
struct DaemonOptions
{
    /** Unix-domain socket path clients connect to. */
    std::string socket_path;
    /** State directory (jobs, result store, lock). */
    std::string state_dir;
    /** Sweep knobs: jobs = worker processes; a 10 s drain deadline. */
    RunnerOptions sweep{.drain_deadline_sec = 10.0};
    /** Supervision knobs (watchdogs, retry, checkpoints, chaos). */
    SupervisorOptions supervision;
    /**
     * Admission bound on jobs with unfinished work (queued +
     * running; 0 = unbounded).  A NEW submission past the bound is
     * shed with kRetryAfter instead of being queued; re-attaching to
     * a known job is always admitted.
     */
    std::uint64_t queue_depth = 0;
    /** Result-store size budget, bytes (0 = unbounded). */
    std::uint64_t cache_budget = 0;
};

/** The sweep service; see the file comment. */
class Daemon
{
  public:
    /**
     * Open the state directory (taking the single-instance lock),
     * replay persisted jobs, and bind the socket.  Throws IoError /
     * SerializeError on an unusable environment.
     */
    explicit Daemon(DaemonOptions opts);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Serve until a graceful stop (signal or kShutdown message).
     * Returns the process exit code: 0 when every known job is
     * complete or degraded, sweepstop::kResumableExit when a stop
     * interrupted pending work (restart to resume).
     */
    int serve();

    /** True while storage writes are failing (degraded serving). */
    bool brownout() const { return brownout_; }

  private:
    struct Job
    {
        std::uint64_t id = 0;
        std::vector<ExperimentPoint> points;
        /** Latest full report (all pending until the job runs). */
        SweepReport report;
        bool running = false;
    };

    std::string jobDir(std::uint64_t job_id) const;
    std::size_t activeJobs() const;
    Job &adoptJob(std::uint64_t job_id,
                  std::vector<ExperimentPoint> points, bool persist);
    void loadPersistedJobs();
    const SweepReport &reportOf(const Job &job) const;
    JobStatus statusOf(const Job &job) const;
    Manifest manifestOf(const Job &job) const;
    void runJob(Job &job);
    void pumpClients(double timeout_sec);
    bool handleClient(std::size_t slot);
    void closeClient(std::size_t slot);

    DaemonOptions opts_;
    int lock_fd_ = -1;
    int listen_fd_ = -1;
    std::vector<int> clients_;
    std::unique_ptr<ResultStore> store_;
    std::map<std::uint64_t, Job> jobs_;
    std::vector<std::uint64_t> run_queue_;
    /** The running job's in-progress report (set by each pump). */
    const SweepReport *live_report_ = nullptr;
    bool shutdown_requested_ = false;
    /** Set when a storage write fails, cleared when writes succeed
     *  again.  A submission whose spec cannot be persisted is shed
     *  with kRetryAfter, but known jobs keep serving status and
     *  manifests from memory throughout. */
    bool brownout_ = false;
};

} // namespace mopac::serve

#endif // MOPAC_SERVE_DAEMON_HH
