/**
 * @file
 * Self-healing daemon client implementation.
 */

#include "client.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/wallclock.hh"
#include "serve/io.hh"

namespace mopac::serve
{

Client::Client(ClientOptions opts) : opts_(std::move(opts)) {}

Client::~Client()
{
    disconnect();
}

void
Client::disconnect()
{
    closeQuiet(fd_);
    fd_ = -1;
}

void
Client::ensureConnected()
{
    if (fd_ >= 0) {
        return;
    }
    const bool bounded = opts_.reconnect_budget_sec >= 0.0;
    const auto deadline = wallclock::deadlineAfter(
        bounded ? opts_.reconnect_budget_sec : 0.0);
    for (std::uint32_t attempt = 1;; ++attempt) {
        const int fd = connectUnix(opts_.socket_path, 0.0);
        if (fd >= 0) {
            fd_ = fd;
            return;
        }
        if (bounded && wallclock::secondsSince(deadline) >= 0.0) {
            throw ClientError(format(
                "daemon at {} unreachable for {:.1f}s",
                opts_.socket_path, opts_.reconnect_budget_sec));
        }
        // Deterministic jittered backoff, same shape as the
        // supervisor's reschedule delays.
        const unsigned shift = std::min(attempt - 1, 5u);
        Rng rng = Rng::forStream(opts_.backoff_seed, attempt);
        sleepFor(0.05 * static_cast<double>(1u << shift) *
                 (0.5 + rng.uniform()));
    }
}

ReceivedMessage
Client::call(const Serializer &request, MsgType type, MsgType expect)
{
    // The shed budget shares the reconnect budget: a daemon that
    // keeps answering kRetryAfter is reachable but overloaded, and
    // the client should give up at the same horizon as for a daemon
    // that is down.
    const bool bounded = opts_.reconnect_budget_sec >= 0.0;
    const auto shed_deadline = wallclock::deadlineAfter(
        bounded ? opts_.reconnect_budget_sec : 0.0);
    for (;;) {
        ensureConnected();
        try {
            if (sendMessage(fd_, request, type,
                            opts_.request_timeout_sec) !=
                IoStatus::kOk) {
                throw IoError("send failed");
            }
            ReceivedMessage msg =
                recvMessage(fd_, opts_.request_timeout_sec);
            if (msg.status != IoStatus::kOk) {
                throw IoError(format("no reply ({})",
                                     toString(msg.status)));
            }
            if (msg.type == MsgType::kError) {
                throw ClientError(loadErrorText(*msg.payload));
            }
            if (msg.type == MsgType::kRetryAfter) {
                const RetryAfter retry =
                    loadRetryAfter(*msg.payload);
                if (bounded &&
                    wallclock::secondsSince(shed_deadline) >= 0.0) {
                    throw ClientError(format(
                        "daemon at {} still shedding load ({}) "
                        "after {:.1f}s",
                        opts_.socket_path, retry.reason,
                        opts_.reconnect_budget_sec));
                }
                warn("serve client: daemon shedding load ({}); "
                     "retrying in {:.2f}s",
                     retry.reason, retry.seconds);
                sleepFor(std::max(retry.seconds, 0.01));
                continue;
            }
            if (msg.type != expect) {
                throw ClientError(format(
                    "unexpected reply type {}",
                    static_cast<std::uint64_t>(msg.type)));
            }
            return msg;
        } catch (const IoError &err) {
            // Connection-level failure (daemon died / restarted):
            // drop the socket and go back through the reconnect
            // path, which enforces the budget.
            warn("serve client: {}; reconnecting", err.what());
            disconnect();
        } catch (const SerializeError &err) {
            warn("serve client: corrupt reply ({}); reconnecting",
                 err.what());
            disconnect();
        }
    }
}

std::optional<DaemonInfo>
Client::ping()
{
    try {
        Serializer empty;
        ReceivedMessage msg =
            call(empty, MsgType::kPing, MsgType::kPong);
        try {
            DaemonInfo info = loadDaemonInfo(*msg.payload);
            msg.payload->finish();
            return info;
        } catch (const SerializeError &) {
            // A daemon predating the identity block answers kPong
            // with an empty payload; reachable is all we can report.
            return DaemonInfo{};
        }
    } catch (const ClientError &) {
        return std::nullopt;
    }
}

JobStatus
Client::submit(const std::vector<ExperimentPoint> &points)
{
    Serializer request;
    savePoints(request, points);
    ReceivedMessage msg =
        call(request, MsgType::kSubmit, MsgType::kSubmitAck);
    JobStatus status = loadJobStatus(*msg.payload);
    msg.payload->finish();
    return status;
}

JobStatus
Client::query(std::uint64_t job_id)
{
    Serializer request;
    saveJobId(request, job_id);
    ReceivedMessage msg =
        call(request, MsgType::kQuery, MsgType::kStatus);
    JobStatus status = loadJobStatus(*msg.payload);
    msg.payload->finish();
    return status;
}

Manifest
Client::fetch(std::uint64_t job_id)
{
    Serializer request;
    saveJobId(request, job_id);
    ReceivedMessage msg =
        call(request, MsgType::kFetch, MsgType::kResults);
    Manifest manifest = loadManifest(*msg.payload);
    msg.payload->finish();
    return manifest;
}

void
Client::requestShutdown()
{
    Serializer empty;
    call(empty, MsgType::kShutdown, MsgType::kShutdownAck);
}

Manifest
Client::runSweep(const std::vector<ExperimentPoint> &points,
                 const PollFn &on_status)
{
    JobStatus status = submit(points);
    const std::uint64_t job_id = status.job_id;
    while (status.phase == JobPhase::kRunning ||
           status.phase == JobPhase::kUnknown) {
        sleepFor(opts_.poll_sec);
        status = query(job_id);
        if (status.phase == JobPhase::kUnknown) {
            // A restarted daemon that lost (or could not read) the
            // spec: idempotent resubmission re-creates the job, and
            // its run serves everything the result store holds.
            status = submit(points);
        }
        if (on_status) {
            on_status(status);
        }
    }
    return fetch(job_id);
}

} // namespace mopac::serve
