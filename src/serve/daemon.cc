/**
 * @file
 * Sweep-service daemon implementation.
 */

#include "daemon.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include <dirent.h>
#include <unistd.h>

#include "common/log.hh"
#include "common/serialize.hh"
#include "serve/io.hh"
#include "sim/stop.hh"
#include "sim/sweep.hh"

namespace mopac::serve
{

namespace
{

/** Backoff hint carried in every kRetryAfter shed. */
constexpr double kRetryHintSec = 0.2;

std::string
hex16(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return std::string(buf);
}

/**
 * Job identity: folds every point's id, configuration signature, and
 * workload.  Two submissions with equal ids replay identical point
 * lists.
 */
std::uint64_t
jobId(const std::vector<ExperimentPoint> &points)
{
    std::string identity;
    for (const ExperimentPoint &point : points) {
        identity += std::to_string(point.point_id);
        identity += ':';
        identity += configSignature(point.cfg);
        identity += '#';
        identity += point.workload;
        identity += '\n';
    }
    return fnv1a64(identity);
}

} // namespace

Daemon::Daemon(DaemonOptions opts) : opts_(std::move(opts))
{
    ensureDir(opts_.state_dir);
    lock_fd_ = lockFile(opts_.state_dir + "/lock");
    if (lock_fd_ < 0) {
        throw IoError(format("another mopac_serve instance holds {}",
                             opts_.state_dir + "/lock"));
    }
    store_ = std::make_unique<ResultStore>(opts_.state_dir + "/cache");
    store_->setBudget(opts_.cache_budget);
    ensureDir(opts_.state_dir + "/jobs");
    loadPersistedJobs();
    listen_fd_ = listenUnix(opts_.socket_path);
    inform("mopac_serve: listening on {} ({} persisted job{})",
           opts_.socket_path, jobs_.size(),
           jobs_.size() == 1 ? "" : "s");
}

Daemon::~Daemon()
{
    for (int fd : clients_) {
        closeQuiet(fd);
    }
    closeQuiet(listen_fd_);
    if (!opts_.socket_path.empty()) {
        ::unlink(opts_.socket_path.c_str());
    }
    closeQuiet(lock_fd_);
}

std::string
Daemon::jobDir(std::uint64_t job_id) const
{
    return opts_.state_dir + "/jobs/" + hex16(job_id);
}

std::size_t
Daemon::activeJobs() const
{
    return run_queue_.size() + (live_report_ != nullptr ? 1 : 0);
}

Daemon::Job &
Daemon::adoptJob(std::uint64_t job_id,
                 std::vector<ExperimentPoint> points, bool persist)
{
    const auto existing = jobs_.find(job_id);
    if (existing != jobs_.end()) {
        return existing->second;
    }

    Job &job = jobs_[job_id];
    job.id = job_id;
    job.points = std::move(points);
    ensureDir(jobDir(job_id));
    if (persist) {
        // Persist the spec BEFORE acknowledging: a daemon SIGKILLed
        // right after the ack still knows the job on restart.
        Serializer ser;
        savePoints(ser, job.points);
        atomicWriteFile(jobDir(job_id) + "/spec.bin",
                        ser.finish(FileKind::kServeJob, job_id));
    }
    // Every adopted job runs once: the driver serves whatever the
    // store already holds and simulates only the rest.
    job.report = SweepReport::allPending(job.points);
    run_queue_.push_back(job_id);
    return job;
}

void
Daemon::loadPersistedJobs()
{
    const std::string jobs_dir = opts_.state_dir + "/jobs";
    ensureDir(jobs_dir);
    DIR *dir = ::opendir(jobs_dir.c_str());
    if (dir == nullptr) {
        throw IoError(format("cannot list {}", jobs_dir));
    }
    std::vector<std::uint64_t> ids;
    while (struct dirent *entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name.size() != 16 ||
            name.find_first_not_of("0123456789abcdef") !=
                std::string::npos) {
            continue;
        }
        ids.push_back(std::strtoull(name.c_str(), nullptr, 16));
    }
    ::closedir(dir);
    // Deterministic adoption (and run-queue) order.
    std::sort(ids.begin(), ids.end());
    for (std::uint64_t id : ids) {
        const std::string spec = jobDir(id) + "/spec.bin";
        try {
            Deserializer des(readFileBytes(spec),
                             FileKind::kServeJob, id);
            std::vector<ExperimentPoint> points = loadPoints(des);
            des.finish();
            if (jobId(points) != id) {
                throw SerializeError("spec does not match job id");
            }
            adoptJob(id, std::move(points), false);
        } catch (const std::exception &err) {
            // A corrupt (or older-format) spec must not brick the
            // daemon: skip the job (its submitter will resubmit) and
            // keep serving.
            warn("mopac_serve: skipping unreadable job {}: {}",
                 hex16(id), err.what());
        }
    }
}

const SweepReport &
Daemon::reportOf(const Job &job) const
{
    return job.running && live_report_ != nullptr ? *live_report_
                                                  : job.report;
}

JobStatus
Daemon::statusOf(const Job &job) const
{
    JobStatus status;
    status.job_id = job.id;
    status.counts = reportOf(job).counts();
    status.phase = phaseOf(status.counts);
    return status;
}

Manifest
Daemon::manifestOf(const Job &job) const
{
    const SweepReport &report = reportOf(job);
    Manifest manifest;
    manifest.status = statusOf(job);
    manifest.entries.reserve(report.results.size());
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        ManifestEntry entry;
        entry.source = report.sources[i];
        entry.result = report.results[i];
        manifest.entries.push_back(std::move(entry));
    }
    return manifest;
}

void
Daemon::runJob(Job &job)
{
    inform("mopac_serve: running job {} ({} points)", hex16(job.id),
           job.points.size());
    SupervisorOptions sup_opts = opts_.supervision;
    if (sup_opts.checkpoint_every > 0) {
        sup_opts.checkpoint_dir = jobDir(job.id) + "/ckpt";
    }
    Supervisor supervisor(sup_opts);
    supervisor.setChildSetup([this] {
        // Workers must not hold the daemon's sockets or lock open.
        closeQuiet(listen_fd_);
        for (int fd : clients_) {
            closeQuiet(fd);
        }
        closeQuiet(lock_fd_);
    });
    supervisor.setPump([this](const SweepReport &live) {
        live_report_ = &live;
        pumpClients(0.0);
    });
    job.running = true;
    job.report = Runner(opts_.sweep).sweep(job.points, store_.get(),
                                           nullptr, &supervisor);
    job.running = false;
    live_report_ = nullptr;
    // Storage health tracks the latest evidence: failures put the
    // daemon into brownout (serving from memory), a clean run clears
    // it.
    brownout_ = job.report.storage_write_failures > 0;
    if (brownout_) {
        warn("mopac_serve: job {} saw {} storage write failures; "
             "entering brownout (results served from memory)",
             hex16(job.id), job.report.storage_write_failures);
    }
    const SweepCounts counts = job.report.counts();
    inform("mopac_serve: job {} {}: {} done ({} cached), {} "
           "quarantined, {} pending",
           hex16(job.id), toString(phaseOf(counts)), counts.done,
           counts.cached, counts.quarantined, counts.pending);
}

void
Daemon::closeClient(std::size_t slot)
{
    closeQuiet(clients_[slot]);
    clients_[slot] = -1;
}

bool
Daemon::handleClient(std::size_t slot)
{
    const int fd = clients_[slot];
    ReceivedMessage msg;
    try {
        msg = recvMessage(fd, 5.0);
    } catch (const std::exception &err) {
        warn("mopac_serve: dropping client: {}", err.what());
        closeClient(slot);
        return false;
    }
    if (msg.status != IoStatus::kOk) {
        if (msg.status == IoStatus::kPeerClosed) {
            closeClient(slot);
        }
        return false;
    }

    Serializer reply;
    MsgType reply_type = MsgType::kError;
    try {
        switch (msg.type) {
          case MsgType::kPing: {
            DaemonInfo info;
            info.daemon_pid = static_cast<std::uint64_t>(::getpid());
            info.queue_depth = opts_.queue_depth;
            info.brownout = brownout_;
            saveDaemonInfo(reply, info);
            reply_type = MsgType::kPong;
            break;
          }
          case MsgType::kSubmit: {
            std::vector<ExperimentPoint> points =
                loadPoints(*msg.payload);
            msg.payload->finish();
            if (points.empty()) {
                throw SerializeError("empty point list");
            }
            const std::uint64_t id = jobId(points);
            // Admission control: shed NEW jobs past the queue bound
            // before touching disk; re-attaching is always admitted.
            if (opts_.queue_depth > 0 &&
                jobs_.find(id) == jobs_.end() &&
                activeJobs() >= opts_.queue_depth) {
                RetryAfter retry;
                retry.seconds = kRetryHintSec;
                retry.reason = format("queue full ({} active jobs)",
                                      activeJobs());
                saveRetryAfter(reply, retry);
                reply_type = MsgType::kRetryAfter;
                break;
            }
            try {
                Job &job = adoptJob(id, std::move(points), true);
                saveJobStatus(reply, statusOf(job));
                reply_type = MsgType::kSubmitAck;
                brownout_ = false;
            } catch (const std::exception &err) {
                // Could not persist the spec: shed the
                // submission rather than lie about crash safety.
                // Known jobs keep serving -- this is a brownout, not
                // an outage.
                jobs_.erase(id);
                run_queue_.erase(std::remove(run_queue_.begin(),
                                             run_queue_.end(), id),
                                 run_queue_.end());
                brownout_ = true;
                warn("mopac_serve: cannot persist job {}: {}; "
                     "shedding (brownout)",
                     hex16(id), err.what());
                reply = Serializer();
                RetryAfter retry;
                retry.seconds = kRetryHintSec;
                retry.reason =
                    format("brownout: {}", err.what());
                saveRetryAfter(reply, retry);
                reply_type = MsgType::kRetryAfter;
            }
            break;
          }
          case MsgType::kQuery: {
            const std::uint64_t id = loadJobId(*msg.payload);
            msg.payload->finish();
            JobStatus status;
            status.job_id = id;
            const auto it = jobs_.find(id);
            if (it != jobs_.end()) {
                status = statusOf(it->second);
            }
            saveJobStatus(reply, status);
            reply_type = MsgType::kStatus;
            break;
          }
          case MsgType::kFetch: {
            const std::uint64_t id = loadJobId(*msg.payload);
            msg.payload->finish();
            const auto it = jobs_.find(id);
            if (it == jobs_.end()) {
                saveErrorText(reply,
                              format("unknown job {}", hex16(id)));
                reply_type = MsgType::kError;
            } else {
                saveManifest(reply, manifestOf(it->second));
                reply_type = MsgType::kResults;
            }
            break;
          }
          case MsgType::kShutdown:
            shutdown_requested_ = true;
            sweepstop::requestStop();
            reply_type = MsgType::kShutdownAck;
            break;
          default:
            saveErrorText(reply,
                          format("unexpected message type {}",
                                 static_cast<std::uint64_t>(
                                     msg.type)));
            reply_type = MsgType::kError;
            break;
        }
    } catch (const std::exception &err) {
        reply = Serializer();
        saveErrorText(reply, err.what());
        reply_type = MsgType::kError;
    }

    try {
        if (sendMessage(fd, reply, reply_type, 10.0) !=
            IoStatus::kOk) {
            closeClient(slot);
        }
    } catch (const std::exception &) {
        closeClient(slot);
    }
    return true;
}

void
Daemon::pumpClients(double timeout_sec)
{
    // Compact out closed clients first so the fd list stays small.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < clients_.size(); ++i) {
        if (clients_[i] >= 0) {
            clients_[kept++] = clients_[i];
        }
    }
    clients_.resize(kept);

    std::vector<int> fds;
    fds.reserve(clients_.size() + 1);
    fds.push_back(listen_fd_);
    for (int fd : clients_) {
        fds.push_back(fd);
    }
    for (std::size_t ready : waitAnyReadable(fds, timeout_sec)) {
        if (ready == 0) {
            const int fd = acceptClient(listen_fd_, 0.0);
            if (fd >= 0) {
                clients_.push_back(fd);
            }
        } else {
            handleClient(ready - 1);
        }
    }
}

int
Daemon::serve()
{
    sweepstop::installSignalHandlers();
    while (!sweepstop::stopRequested() && !shutdown_requested_) {
        if (!run_queue_.empty()) {
            const std::uint64_t id = run_queue_.front();
            run_queue_.erase(run_queue_.begin());
            const auto it = jobs_.find(id);
            if (it != jobs_.end() &&
                it->second.report.counts().pending > 0) {
                runJob(it->second);
            }
            continue;
        }
        pumpClients(0.2);
    }

    bool pending = !run_queue_.empty();
    for (const auto &[id, job] : jobs_) {
        pending = pending || job.report.counts().pending > 0;
    }
    inform("mopac_serve: stopping ({})",
           pending ? "pending work; restart to resume" : "idle");
    return pending ? sweepstop::kResumableExit : 0;
}

} // namespace mopac::serve
