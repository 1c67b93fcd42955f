/**
 * @file
 * Client side of the mopac_serve protocol.
 *
 * The client is deliberately forgiving: the daemon owns all durable
 * state (specs, result store), so a client can lose its connection
 * -- or the whole daemon can be SIGKILLed and restarted -- at any
 * point, and the client just reconnects with jittered backoff and
 * resubmits.  Submission is idempotent (the job id is a content hash
 * of the point list), so "resubmit after reconnect" re-attaches to
 * the same job, and finished points come from the store.  This is
 * what makes the end-to-end daemon smoke self-healing: kill the
 * daemon mid-sweep, restart it, and the waiting client converges on
 * the same manifest as an uninterrupted run.
 */

#ifndef MOPAC_SERVE_CLIENT_HH
#define MOPAC_SERVE_CLIENT_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.hh"

namespace mopac::serve
{

/** Client configuration. */
struct ClientOptions
{
    /** Daemon socket path. */
    std::string socket_path;
    /** Per-request timeout, seconds. */
    double request_timeout_sec = 30.0;
    /**
     * Total budget for (re)connecting to a daemon that is down,
     * seconds; negative = keep trying forever.  Individual attempts
     * back off with deterministic jitter.
     */
    double reconnect_budget_sec = 60.0;
    /** Seed of the reconnect-jitter stream. */
    std::uint64_t backoff_seed = 0x6d6f706163636c69ull;
    /** Status poll period while waiting on a sweep, seconds. */
    double poll_sec = 0.25;
};

/** Thrown when the daemon stays unreachable past the budget. */
class ClientError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One daemon connection (auto-reconnecting); see file comment. */
class Client
{
  public:
    explicit Client(ClientOptions opts);
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /**
     * Round-trip a ping.  Returns the daemon's identity/health block
     * (a default-constructed DaemonInfo for daemons predating it) or
     * nullopt when the daemon is unreachable.
     */
    std::optional<DaemonInfo> ping();

    /**
     * Submit (or re-attach to) a sweep; returns the daemon's status
     * acknowledgement carrying the job id.
     */
    JobStatus submit(const std::vector<ExperimentPoint> &points);

    /** Query a job's progress. */
    JobStatus query(std::uint64_t job_id);

    /** Fetch a job's (possibly partial) manifest. */
    Manifest fetch(std::uint64_t job_id);

    /** Ask the daemon to stop gracefully. */
    void requestShutdown();

    /** Progress hook for runSweep (counts after each poll). */
    using PollFn = std::function<void(const JobStatus &)>;

    /**
     * The self-healing one-call sweep: submit, poll until the job
     * leaves kRunning, fetch the final manifest.  Survives daemon
     * restarts (reconnect + idempotent resubmit).  Throws
     * ClientError when the daemon stays down past the reconnect
     * budget.
     */
    Manifest runSweep(const std::vector<ExperimentPoint> &points,
                      const PollFn &on_status = nullptr);

  private:
    void disconnect();
    void ensureConnected();
    /** One request/response round-trip with reconnect-and-retry. */
    ReceivedMessage call(const Serializer &request, MsgType type,
                         MsgType expect);

    ClientOptions opts_;
    int fd_ = -1;
};

} // namespace mopac::serve

#endif // MOPAC_SERVE_CLIENT_HH
