/**
 * @file
 * Bounded, EINTR-safe syscall wrappers for the serve layer.
 *
 * This file is the sanctioned home of every raw blocking syscall in
 * serve code (mopac_lint check `serve-timeout` enforces it); keep the
 * raw calls here and audited.
 */

#include "io.hh"

#include <cerrno>
#include <cstring>
#include <mutex>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/format.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/wallclock.hh"

namespace mopac::serve
{

namespace
{

[[noreturn]] void
throwErrno(const std::string &what)
{
    throw IoError(format("{}: {}", what, std::strerror(errno)));
}

// ------------------------------------------------------------------
// Fault shim state
// ------------------------------------------------------------------

/** Per-kind decision streams; each keeps its own call counter. */
enum ShimKind : std::uint64_t
{
    kShimWrite = 1,
    kShimRecv = 3,
    kShimSend = 4,
    kShimSendShort = 5,
};

std::mutex shim_mutex;
IoFaultConfig shim_config;     // seed == 0 -> disabled
IoFaultStats shim_stats;
std::uint64_t shim_counters[6] = {};

/**
 * Draw the deterministic injection decision for call number N of
 * @p kind: Rng(streamSeed(streamSeed(seed, kind), N)) < rate.  The
 * double counter-mode split makes the decision a pure function of
 * (seed, kind, N) -- independent of every other stream and of call
 * interleaving across kinds.
 */
bool
shimFires(ShimKind kind, double IoFaultConfig::*rate,
          std::uint64_t IoFaultStats::*stat)
{
    const std::lock_guard<std::mutex> lock(shim_mutex);
    if (shim_config.seed == 0 || shim_config.*rate <= 0.0) {
        return false;
    }
    const std::uint64_t n = shim_counters[kind]++;
    Rng rng = Rng::forStream(Rng::streamSeed(shim_config.seed, kind),
                             n);
    if (rng.uniform() >= shim_config.*rate) {
        return false;
    }
    shim_stats.*stat += 1;
    return true;
}

/** Remaining budget in milliseconds for poll(). */
int
remainingMs(wallclock::TimePoint deadline)
{
    const double left = -wallclock::secondsSince(deadline);
    if (left <= 0.0) {
        return 0;
    }
    const double ms = left * 1000.0;
    return ms > 2147483000.0 ? 2147483000 : static_cast<int>(ms) + 1;
}

} // namespace

const char *
toString(IoStatus status)
{
    switch (status) {
      case IoStatus::kOk: return "ok";
      case IoStatus::kTimeout: return "timeout";
      case IoStatus::kPeerClosed: return "peer-closed";
    }
    return "?";
}

std::vector<std::size_t>
waitAnyReadable(const std::vector<int> &fds, double timeout_sec)
{
    std::vector<struct pollfd> pfds;
    std::vector<std::size_t> index;
    pfds.reserve(fds.size());
    for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i] < 0) {
            continue;
        }
        struct pollfd pfd = {};
        pfd.fd = fds[i];
        pfd.events = POLLIN;
        pfds.push_back(pfd);
        index.push_back(i);
    }
    std::vector<std::size_t> ready;
    if (pfds.empty()) {
        return ready;
    }
    const int rc = ::poll(pfds.data(), pfds.size(),
                          remainingMs(wallclock::deadlineAfter(timeout_sec)));
    if (rc < 0) {
        if (errno == EINTR) {
            // Let the caller observe its stop flags after a signal.
            return ready;
        }
        throwErrno("poll");
    }
    for (std::size_t i = 0; i < pfds.size(); ++i) {
        if (pfds[i].revents != 0) {
            ready.push_back(index[i]);
        }
    }
    return ready;
}

IoStatus
readExact(int fd, std::uint8_t *out, std::size_t size,
          double timeout_sec)
{
    const auto deadline = wallclock::deadlineAfter(timeout_sec);
    std::size_t got = 0;
    while (got < size) {
        struct pollfd pfd = {};
        pfd.fd = fd;
        pfd.events = POLLIN;
        const int prc =
            ::poll(&pfd, 1, remainingMs(deadline));
        if (prc == 0) {
            if (got > 0) {
                throw IoError(format(
                    "timed out mid-frame ({} of {} bytes)", got,
                    size));
            }
            return IoStatus::kTimeout;
        }
        if (prc < 0) {
            if (errno == EINTR) {
                continue;
            }
            throwErrno("poll");
        }
        if (shimFires(kShimRecv, &IoFaultConfig::eintr_rate,
                      &IoFaultStats::eintr)) {
            continue; // Injected EINTR: the bounded loop retries.
        }
        const ssize_t rc = ::recv(fd, out + got, size - got, 0);
        if (rc > 0) {
            got += static_cast<std::size_t>(rc);
            continue;
        }
        if (rc == 0) {
            if (got > 0) {
                throw IoError(format(
                    "peer closed mid-frame ({} of {} bytes)", got,
                    size));
            }
            return IoStatus::kPeerClosed;
        }
        if (errno == EINTR || errno == EAGAIN ||
            errno == EWOULDBLOCK) {
            continue;
        }
        if (errno == ECONNRESET) {
            return IoStatus::kPeerClosed;
        }
        throwErrno("recv");
    }
    return IoStatus::kOk;
}

IoStatus
writeAll(int fd, const std::uint8_t *data, std::size_t size,
         double timeout_sec)
{
    const auto deadline = wallclock::deadlineAfter(timeout_sec);
    std::size_t sent = 0;
    while (sent < size) {
        struct pollfd pfd = {};
        pfd.fd = fd;
        pfd.events = POLLOUT;
        const int prc =
            ::poll(&pfd, 1, remainingMs(deadline));
        if (prc == 0) {
            return IoStatus::kTimeout;
        }
        if (prc < 0) {
            if (errno == EINTR) {
                continue;
            }
            throwErrno("poll");
        }
        if (shimFires(kShimSend, &IoFaultConfig::eintr_rate,
                      &IoFaultStats::eintr)) {
            continue; // Injected EINTR: the bounded loop retries.
        }
        std::size_t chunk = size - sent;
        if (chunk > 1 &&
            shimFires(kShimSendShort, &IoFaultConfig::short_write_rate,
                      &IoFaultStats::short_writes)) {
            // Injected short write: force the continuation path.
            chunk = 1 + (chunk - 1) / 2;
        }
        const ssize_t rc =
            ::send(fd, data + sent, chunk, MSG_NOSIGNAL);
        if (rc > 0) {
            sent += static_cast<std::size_t>(rc);
            continue;
        }
        if (rc < 0 && (errno == EINTR || errno == EAGAIN ||
                       errno == EWOULDBLOCK)) {
            continue;
        }
        if (rc < 0 && (errno == EPIPE || errno == ECONNRESET)) {
            return IoStatus::kPeerClosed;
        }
        throwErrno("send");
    }
    return IoStatus::kOk;
}

void
sleepFor(double seconds)
{
    if (seconds <= 0.0) {
        return;
    }
    const auto deadline = wallclock::deadlineAfter(seconds);
    for (;;) {
        const int ms = remainingMs(deadline);
        if (ms <= 0) {
            return;
        }
        struct pollfd none = {};
        none.fd = -1;
        if (::poll(&none, 1, ms) == 0) {
            return; // Full interval elapsed.
        }
        // EINTR: keep sleeping until the deadline.
    }
}

SocketPair
makeSocketPair()
{
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) <
        0) {
        throwErrno("socketpair");
    }
    SocketPair pair;
    pair.supervisor_fd = fds[0];
    pair.worker_fd = fds[1];
    return pair;
}

ChildStatus
reapChild(pid_t pid)
{
    ChildStatus status;
    int wstatus = 0;
    pid_t rc;
    do {
        rc = ::waitpid(pid, &wstatus, WNOHANG);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) {
        // 0 = still running; <0 = already reaped / not ours.  Either
        // way the child has not newly exited for this caller.
        status.exited = rc < 0;
        return status;
    }
    status.exited = true;
    if (WIFSIGNALED(wstatus)) {
        status.signaled = true;
        status.signal_number = WTERMSIG(wstatus);
    } else if (WIFEXITED(wstatus)) {
        status.exit_code = WEXITSTATUS(wstatus);
    }
    return status;
}

void
closeQuiet(int fd)
{
    if (fd >= 0) {
        ::close(fd);
    }
}

void
ensureDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
        return;
    }
    throwErrno(format("mkdir {}", path));
}

void
setIoFaultShim(const IoFaultConfig &config)
{
    {
        const std::lock_guard<std::mutex> lock(shim_mutex);
        shim_config = config;
        shim_stats = IoFaultStats{};
        for (std::uint64_t &c : shim_counters) {
            c = 0;
        }
    }
    // ENOSPC rides the common-layer hook so every atomicWriteFile in
    // the process (result-store entries, checkpoints) injects from the
    // same deterministic stream.
    if (config.seed != 0 && config.enospc_rate > 0.0) {
        setWriteFaultHook([](const std::string &path) {
            if (shimFires(kShimWrite, &IoFaultConfig::enospc_rate,
                          &IoFaultStats::enospc)) {
                throw SerializeError(format(
                    "injected ENOSPC writing '{}' (fault shim)",
                    path));
            }
        });
    } else {
        setWriteFaultHook({});
    }
}

IoFaultStats
ioFaultShimStats()
{
    const std::lock_guard<std::mutex> lock(shim_mutex);
    return shim_stats;
}

} // namespace mopac::serve
