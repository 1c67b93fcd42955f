/**
 * @file
 * The one sanctioned blocking-syscall access point of the serve layer.
 *
 * The worker supervisor must never wedge on a dead or stopped worker:
 * every blocking call it makes has to carry a timeout and survive
 * EINTR.  Instead of auditing that discipline at every call site, the
 * serve layer funnels all raw read/write/poll/waitpid use through this
 * file, and mopac_lint (check `serve-timeout`) flags any raw blocking
 * syscall elsewhere in serve code -- the same pattern as the wallclock
 * shim for host time (check `det-clock`).
 *
 * Conventions:
 *  - Timeouts are in fractional seconds, and every wait is bounded
 *    by one.
 *  - Every wrapper retries EINTR internally.
 *  - Writes use MSG_NOSIGNAL, so a dead peer yields EPIPE instead of
 *    killing the process; no SIGPIPE handler is needed.
 *  - Failures throw IoError with errno context, except the explicit
 *    Timeout / PeerClosed outcomes that callers routinely handle.
 */

#ifndef MOPAC_SERVE_IO_HH
#define MOPAC_SERVE_IO_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/types.h>

namespace mopac::serve
{

/** Structured I/O failure (errno text included). */
class IoError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Outcome of a bounded I/O attempt. */
enum class IoStatus
{
    kOk,        //!< The full operation completed.
    kTimeout,   //!< The deadline expired first.
    kPeerClosed //!< EOF / EPIPE / ECONNRESET: the other side is gone.
};

/** Printable name of an IoStatus. */
const char *toString(IoStatus status);

/**
 * Wait for readability on many fds at once (the supervisor's event
 * loop).  @p fds may contain -1 entries (ignored).  Returns the
 * indices of @p fds that are readable or hung up; an empty result
 * means the timeout expired.  EINTR also returns (empty) so the
 * caller can re-check its stop flags after a signal.
 */
std::vector<std::size_t> waitAnyReadable(const std::vector<int> &fds,
                                         double timeout_sec);

/**
 * Read exactly @p size bytes into @p out.  Partial data followed by
 * EOF throws IoError (a torn frame is corruption, not a clean close);
 * EOF before the first byte returns kPeerClosed.
 */
IoStatus readExact(int fd, std::uint8_t *out, std::size_t size,
                   double timeout_sec);

/** Write all of @p data (MSG_NOSIGNAL; kPeerClosed on EPIPE). */
IoStatus writeAll(int fd, const std::uint8_t *data, std::size_t size,
                  double timeout_sec);

/**
 * EINTR-proof bounded sleep (retry backoff).  Like the
 * wallclock shim, keeping the one sanctioned sleep here makes every
 * serve-layer delay greppable and auditable.
 */
void sleepFor(double seconds);

/** A connected SOCK_STREAM socketpair (supervisor end, worker end). */
struct SocketPair
{
    int supervisor_fd = -1;
    int worker_fd = -1;
};

/** Create the supervisor<->worker socketpair; throws IoError. */
SocketPair makeSocketPair();

/** What non-blocking child reaping observed. */
struct ChildStatus
{
    /** True when the child has exited (fields below are valid). */
    bool exited = false;
    /** True when a signal killed it (then @c signal_number is set). */
    bool signaled = false;
    int exit_code = 0;
    int signal_number = 0;
};

/**
 * Non-blocking waitpid(WNOHANG) on @p pid.  Never blocks: the
 * supervisor polls this from its event loop instead of trusting a
 * blocking wait that a wedged child could stall forever.
 */
ChildStatus reapChild(pid_t pid);

/** Close @p fd if valid, ignoring errors (teardown paths). */
void closeQuiet(int fd);

/**
 * Create directory @p path (one level, 0755); an existing directory
 * is fine.  Throws IoError otherwise.  The serve layer's sanctioned
 * mkdir -- checkpoint dirs go through here so no other serve file
 * needs to read errno (mopac_lint check `io-errno`).
 */
void ensureDir(const std::string &path);

// ------------------------------------------------------------------
// Deterministic syscall-level fault injection (tests / chaos drills)
// ------------------------------------------------------------------

/**
 * Configuration of the I/O fault shim.  With @c seed == 0 the shim is
 * fully disabled and every wrapper takes its zero-overhead path.
 * Each decision is drawn from a counter-mode RNG stream keyed by
 * (seed, syscall kind, per-kind call counter), so a given seed yields
 * the same injection sequence on every run -- failures are
 * reproducible, never flaky.
 *
 * What each rate injects:
 *  - enospc_rate: atomicWriteFile throws SerializeError before any
 *    byte is written (via the common-layer write fault hook), i.e. a
 *    full disk for result-store entries and checkpoints.
 *  - eintr_rate: readExact / writeAll skip one syscall iteration as
 *    if it had returned EINTR (their retry loops must converge).
 *  - short_write_rate: writeAll truncates one send() so the partial-
 *    write continuation path actually runs.
 */
struct IoFaultConfig
{
    std::uint64_t seed = 0; //!< 0 disables the shim entirely.
    double enospc_rate = 0.0;
    double eintr_rate = 0.0;
    double short_write_rate = 0.0;
};

/** How many of each fault the shim has injected since installed. */
struct IoFaultStats
{
    std::uint64_t enospc = 0;
    std::uint64_t eintr = 0;
    std::uint64_t short_writes = 0;
};

/**
 * Install (or, with a zero seed, remove) the fault shim.  Also
 * installs/removes the serialize-layer write fault hook so ENOSPC
 * injection covers every atomicWriteFile in the process.  Resets the
 * stats and per-kind counters.
 */
void setIoFaultShim(const IoFaultConfig &config);

/** Injection counts since the last setIoFaultShim(). */
IoFaultStats ioFaultShimStats();

} // namespace mopac::serve

#endif // MOPAC_SERVE_IO_HH
