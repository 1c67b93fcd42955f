/**
 * @file
 * Wire protocol between the Supervisor and its forked workers.
 *
 * Every message is one length-prefixed frame:
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
#include <string>

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

// ------------------------------------------------------------------
// Field codecs
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

/** Serialize an Assignment. */
void saveAssignment(Serializer &ser, const Assignment &assignment);

/** Restore an Assignment. */
Assignment loadAssignment(Deserializer &des);

/** Serialize a PointEvent. */
void savePointEvent(Serializer &ser, const PointEvent &event);

/** Restore a PointEvent. */
PointEvent loadPointEvent(Deserializer &des);

// ------------------------------------------------------------------
// Framing
// ------------------------------------------------------------------

/**
 * Send one message: @p ser (all sections closed) sealed into a frame
 * for @p type.  Returns kOk / kTimeout / kPeerClosed; throws
 * IoError on hard failures.
 */
IoStatus sendMessage(int fd, const Serializer &ser, MsgType type,
                     double timeout_sec);

/** Convenience: a message with an empty payload (kHeartbeat...). */
IoStatus sendEmptyMessage(int fd, MsgType type, double timeout_sec);

/** A received, envelope-validated message. */
struct ReceivedMessage
{
    IoStatus status = IoStatus::kTimeout;
    MsgType type = MsgType::kHeartbeat;
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
