/**
 * @file
 * Wire protocol of the mopac_serve daemon.
 *
 * Every message -- client<->daemon and supervisor<->worker -- is one
 * length-prefixed frame:
 *
 *   +--------------------------------------------------------------+
 *   | u64 frame length N (little-endian)                           |
 *   | N bytes: a serialize-layer container (magic "MOPACSER",      |
 *   |   version, kind = kServeMessage, config-hash field = the     |
 *   |   MsgType, CRC32 trailer)                                    |
 *   +--------------------------------------------------------------+
 *
 * Reusing the checkpoint container gives the protocol the same
 * properties as the on-disk artifacts for free: strict versioning
 * (version skew is a structured SerializeError, not garbage), CRC
 * integrity over every frame, and tagged sections so reader/writer
 * drift is detected rather than misparsed.
 *
 * Configurations cross the wire through saveSystemConfig(), which
 * also embeds the sender's configSignature(); loadSystemConfig()
 * recomputes the signature over the decoded config and throws on any
 * mismatch.  A codec that silently dropped or reordered a field can
 * therefore never produce a wrong simulation -- it produces a
 * structured decode error at the first message.
 */

#ifndef MOPAC_SERVE_PROTOCOL_HH
#define MOPAC_SERVE_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/serialize.hh"
#include "serve/io.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"

namespace mopac::serve
{

/** Frames larger than this are rejected as corrupt (1 GiB). */
constexpr std::uint64_t kMaxFrameBytes = 1ull << 30;

/** Message discriminator (carried in the envelope's hash field). */
enum class MsgType : std::uint64_t
{
    // Client -> daemon.
    kPing = 1,
    kSubmit,      //!< Submit (or re-attach to) a sweep job.
    kQuery,       //!< Job status by id.
    kFetch,       //!< Fetch the (possibly partial) manifest.
    kShutdown,    //!< Request a graceful daemon stop.

    // Daemon -> client.
    kPong = 50,
    kSubmitAck,
    kStatus,
    kResults,
    kShutdownAck,
    kError,       //!< Structured failure (text payload).
    kRetryAfter,  //!< Load shed: back off and resubmit later.

    // Supervisor -> worker.
    kAssign = 100, //!< A chunk of points to execute.
    kPreempt,      //!< Checkpoint the running point and yield it.
    kCheckpointAck, //!< Continue past the checkpoint just reported.

    // Worker -> supervisor.
    kPointStart = 150, //!< About to run a point (doubles as a beat).
    kPointDone,        //!< One finished PointResult.
    kHeartbeat,        //!< Idle liveness beat.
    kCheckpointed,     //!< Mid-point checkpoint written (busy beat).
    kPointPreempted,   //!< Point checkpointed and yielded on request.
};

/** Lifecycle of a job inside the daemon. */
enum class JobPhase : std::uint8_t
{
    kUnknown,  //!< No such job.
    kRunning,  //!< Points pending or in flight.
    kComplete, //!< Every point finished OK (fresh or cached).
    kDegraded, //!< Finished, but some points are quarantined.
};

/** Printable name of a job phase. */
const char *toString(JobPhase phase);

/** Job phase implied by a sweep's counters. */
JobPhase phaseOf(const SweepCounts &counts);

/** One manifest row: a result plus where it came from. */
struct ManifestEntry
{
    PointSource source = PointSource::kPending;
    PointResult result;
};

/** One chunk assignment (kAssign payload). */
struct Assignment
{
    /** Supervisor-level attempt number (1-based; backoff bookkeeping
     *  only -- the simulation seed is attempt-independent, so every
     *  attempt of a point is bit-identical). */
    std::uint32_t attempt = 1;
    /** The sweep's Runner knobs; the worker uses fault_retries and
     *  point_max_cycles (pool size and drain stay with the driver). */
    RunnerOptions opts;
    /** Checkpoint cadence in simulated cycles (0 = off). */
    std::uint64_t checkpoint_every = 0;
    /**
     * Checkpoint file for this point ("" = checkpointing off).  An
     * existing file is restored from (resume); the worker rewrites it
     * at every checkpoint_every interval.
     */
    std::string ckpt_path;
    /** The point to execute. */
    ExperimentPoint point;
};

/**
 * Point lifecycle beat (kPointStart / kCheckpointed /
 * kPointPreempted payloads; kPointDone prefix).  The cycle fields
 * are zero on kPointStart and carry executed-cycle accounting on the
 * rest: @c resumed_from is the cycle this attempt started from (0 =
 * fresh) and @c executed_cycles the cycles this attempt has executed
 * so far, so the supervisor can prove re-run work after a preemption
 * is bounded by one checkpoint interval.
 */
struct PointEvent
{
    std::uint64_t point_id = 0;
    std::uint32_t attempt = 1;
    std::uint64_t resumed_from = 0;
    std::uint64_t executed_cycles = 0;
};

/** Daemon identity + health (kPong payload). */
struct DaemonInfo
{
    /** Serialize/protocol format version of the daemon's build. */
    std::uint32_t protocol_version = kSerializeVersion;
    std::uint64_t daemon_pid = 0;
    /** Admission bound on queued+running jobs (0 = unbounded). */
    std::uint64_t queue_depth = 0;
    /** True while storage writes are failing (degraded serving). */
    bool brownout = false;
};

/** Load-shed response (kRetryAfter payload). */
struct RetryAfter
{
    /** Suggested client backoff before resubmitting. */
    double seconds = 1.0;
    /** Human-readable shed reason ("queue full", "brownout", ...). */
    std::string reason;
};

/** Job identity + progress (kSubmitAck / kStatus payloads). */
struct JobStatus
{
    std::uint64_t job_id = 0;
    JobPhase phase = JobPhase::kUnknown;
    SweepCounts counts;
};

/** A (possibly partial) sweep manifest (kResults payload). */
struct Manifest
{
    JobStatus status;
    /** One entry per submitted point, in submission order. */
    std::vector<ManifestEntry> entries;
};

// ------------------------------------------------------------------
// Field codecs (shared by frames, job specs, and cache entries)
// ------------------------------------------------------------------

/** Serialize a full SystemConfig (including its fault plan). */
void saveSystemConfig(Serializer &ser, const SystemConfig &cfg);

/**
 * Restore a SystemConfig saved by saveSystemConfig().  Throws
 * SerializeError when the recomputed configSignature() differs from
 * the embedded one (codec drift) or any enum field is out of range.
 */
SystemConfig loadSystemConfig(Deserializer &des);

/** Serialize one ExperimentPoint (id, label, workload, config). */
void savePoint(Serializer &ser, const ExperimentPoint &point);

/** Restore an ExperimentPoint saved by savePoint(). */
ExperimentPoint loadPoint(Deserializer &des);

/** Serialize a point list (job specs, kSubmit payloads). */
void savePoints(Serializer &ser,
                const std::vector<ExperimentPoint> &points);

/** Restore a point list saved by savePoints(). */
std::vector<ExperimentPoint> loadPoints(Deserializer &des);

/** Serialize an Assignment. */
void saveAssignment(Serializer &ser, const Assignment &assignment);

/** Restore an Assignment. */
Assignment loadAssignment(Deserializer &des);

/** Serialize a PointEvent. */
void savePointEvent(Serializer &ser, const PointEvent &event);

/** Restore a PointEvent. */
PointEvent loadPointEvent(Deserializer &des);

/** Serialize a bare job id (kQuery / kFetch payloads). */
void saveJobId(Serializer &ser, std::uint64_t job_id);

/** Restore a bare job id. */
std::uint64_t loadJobId(Deserializer &des);

/** Serialize a JobStatus. */
void saveJobStatus(Serializer &ser, const JobStatus &status);

/** Restore a JobStatus. */
JobStatus loadJobStatus(Deserializer &des);

/** Serialize a Manifest (status + per-point entries). */
void saveManifest(Serializer &ser, const Manifest &manifest);

/** Restore a Manifest. */
Manifest loadManifest(Deserializer &des);

/** Serialize a kError text payload. */
void saveErrorText(Serializer &ser, const std::string &text);

/** Restore a kError text payload. */
std::string loadErrorText(Deserializer &des);

/** Serialize a DaemonInfo (kPong payload). */
void saveDaemonInfo(Serializer &ser, const DaemonInfo &info);

/** Restore a DaemonInfo. */
DaemonInfo loadDaemonInfo(Deserializer &des);

/** Serialize a RetryAfter (kRetryAfter payload). */
void saveRetryAfter(Serializer &ser, const RetryAfter &retry);

/** Restore a RetryAfter. */
RetryAfter loadRetryAfter(Deserializer &des);

// ------------------------------------------------------------------
// Framing
// ------------------------------------------------------------------

/**
 * Seal @p ser into a full frame (length prefix + container) for
 * @p type.  The Serializer must have all sections closed.
 */
std::vector<std::uint8_t> sealFrame(const Serializer &ser,
                                    MsgType type);

/**
 * Send one message.  Returns kOk / kTimeout / kPeerClosed; throws
 * IoError on hard failures.
 */
IoStatus sendMessage(int fd, const Serializer &ser, MsgType type,
                     double timeout_sec);

/** Convenience: a message with an empty payload (kPing, kPreempt...). */
IoStatus sendEmptyMessage(int fd, MsgType type, double timeout_sec);

/** A received, envelope-validated message. */
struct ReceivedMessage
{
    IoStatus status = IoStatus::kTimeout;
    MsgType type = MsgType::kError;
    /** Valid when status == kOk; positioned at the payload start. */
    std::optional<Deserializer> payload;
};

/**
 * Receive one message, waiting up to @p timeout_sec for the first
 * byte (a frame already started must complete within the timeout or
 * the connection is declared corrupt).  Throws SerializeError on a
 * corrupt frame and IoError on hard I/O failures.
 */
ReceivedMessage recvMessage(int fd, double timeout_sec);

} // namespace mopac::serve

#endif // MOPAC_SERVE_PROTOCOL_HH
