/**
 * @file
 * Wire codec + framing implementation.
 */

#include "protocol.hh"

#include "common/format.hh"
#include "sim/result_store.hh"

namespace mopac::serve
{

namespace
{

/** Section tags (serve-layer range, disjoint from store tags). */
constexpr std::uint32_t kTagConfig = 0x53434647; // 'SCFG'
constexpr std::uint32_t kTagPointHdr = 0x53505448; // 'SPTH'
constexpr std::uint32_t kTagPointList = 0x53505453; // 'SPTS'
constexpr std::uint32_t kTagCounts = 0x53435453; // 'SCTS'
constexpr std::uint32_t kTagAssign = 0x5341474E; // 'SAGN'
constexpr std::uint32_t kTagEvent = 0x53455654;  // 'SEVT'
constexpr std::uint32_t kTagJobId = 0x534A4944; // 'SJID'
constexpr std::uint32_t kTagStatus = 0x534A5354; // 'SJST'
constexpr std::uint32_t kTagManifest = 0x534D414E; // 'SMAN'
constexpr std::uint32_t kTagError = 0x53455252; // 'SERR'
constexpr std::uint32_t kTagDaemon = 0x53444D4E; // 'SDMN'
constexpr std::uint32_t kTagRetry = 0x53525441; // 'SRTA'

std::uint8_t
checkedEnum(std::uint64_t value, std::uint64_t max_value,
            const char *what)
{
    if (value > max_value) {
        throw SerializeError(
            format("invalid {} value {}", what, value));
    }
    return static_cast<std::uint8_t>(value);
}

} // namespace

const char *
toString(JobPhase phase)
{
    switch (phase) {
      case JobPhase::kUnknown: return "unknown";
      case JobPhase::kRunning: return "running";
      case JobPhase::kComplete: return "complete";
      case JobPhase::kDegraded: return "degraded";
    }
    return "?";
}

JobPhase
phaseOf(const SweepCounts &counts)
{
    if (counts.pending > 0) {
        return JobPhase::kRunning;
    }
    return counts.quarantined > 0 ? JobPhase::kDegraded
                                  : JobPhase::kComplete;
}

void
saveSystemConfig(Serializer &ser, const SystemConfig &cfg)
{
    ser.begin(kTagConfig);

    // Geometry.
    ser.putU32(cfg.geometry.num_subchannels);
    ser.putU32(cfg.geometry.banks_per_subchannel);
    ser.putU32(cfg.geometry.rows_per_bank);
    ser.putU32(cfg.geometry.row_bytes);
    ser.putU32(cfg.geometry.line_bytes);
    ser.putU32(cfg.geometry.mop_lines);
    ser.putU32(cfg.geometry.chips);

    // Mitigation + engine knobs.
    ser.putU8(static_cast<std::uint8_t>(cfg.mitigation));
    ser.putU32(cfg.trh);
    ser.putU32(cfg.ath_override);
    ser.putU32(cfg.ath_star_override);
    ser.putU32(cfg.srq_capacity);
    ser.putU32(cfg.tth);
    ser.putU32(static_cast<std::uint32_t>(cfg.drain_per_ref + 1));
    ser.putU8(cfg.nup ? 1 : 0);
    ser.putU8(cfg.rowpress ? 1 : 0);
    ser.putU8(static_cast<std::uint8_t>(cfg.sampler));
    ser.putU8(static_cast<std::uint8_t>(cfg.engine));

    // Controller.
    ser.putU32(cfg.mc.read_queue_cap);
    ser.putU32(cfg.mc.write_queue_cap);
    ser.putU32(cfg.mc.wq_drain_high);
    ser.putU32(cfg.mc.wq_drain_low);
    ser.putU8(static_cast<std::uint8_t>(cfg.mc.page_policy));
    ser.putU64(cfg.mc.timeout_ton);

    // Core + run horizon.
    ser.putU32(cfg.core.rob_entries);
    ser.putU32(cfg.core.width);
    ser.putU32(cfg.core.mshrs);
    ser.putU32(cfg.num_cores);
    ser.putU64(cfg.insts_per_core);
    ser.putU64(cfg.warmup_insts);
    ser.putU64(cfg.seed);
    ser.putU64(cfg.max_cycles);
    ser.putU64(cfg.watchdog_cycles);
    ser.putU32(cfg.watchdog_tail);

    // Fault plan.
    ser.putU64(cfg.faults.seed);
    ser.putF64(cfg.faults.intensity);
    for (const FaultSpec &spec : cfg.faults.specs) {
        ser.putF64(spec.rate);
        ser.putU64(spec.at);
        ser.putU64(spec.duration);
        ser.putU32(spec.chip);
    }

    // Epoch statistics.
    ser.putU8(cfg.track_epoch_stats ? 1 : 0);
    ser.putU64(cfg.epoch_cycles);
    ser.putU32(cfg.epoch_hi1);
    ser.putU32(cfg.epoch_hi2);

    // Drift guard: the receiver recomputes this over the decoded
    // config, so a codec that loses a signature-relevant field can
    // never silently produce a different simulation.
    ser.putStr(configSignature(cfg));
    ser.end();
}

SystemConfig
loadSystemConfig(Deserializer &des)
{
    SystemConfig cfg;
    des.begin(kTagConfig);

    cfg.geometry.num_subchannels = des.getU32();
    cfg.geometry.banks_per_subchannel = des.getU32();
    cfg.geometry.rows_per_bank = des.getU32();
    cfg.geometry.row_bytes = des.getU32();
    cfg.geometry.line_bytes = des.getU32();
    cfg.geometry.mop_lines = des.getU32();
    cfg.geometry.chips = des.getU32();

    cfg.mitigation = static_cast<MitigationKind>(checkedEnum(
        des.getU8(),
        static_cast<std::uint64_t>(MitigationKind::kQprac),
        "mitigation kind"));
    cfg.trh = des.getU32();
    cfg.ath_override = des.getU32();
    cfg.ath_star_override = des.getU32();
    cfg.srq_capacity = des.getU32();
    cfg.tth = des.getU32();
    cfg.drain_per_ref = static_cast<int>(des.getU32()) - 1;
    cfg.nup = des.getU8() != 0;
    cfg.rowpress = des.getU8() != 0;
    cfg.sampler = static_cast<MopacDEngine::SamplerKind>(checkedEnum(
        des.getU8(),
        static_cast<std::uint64_t>(MopacDEngine::SamplerKind::kPara),
        "sampler kind"));
    cfg.engine = static_cast<SimEngine>(checkedEnum(
        des.getU8(), static_cast<std::uint64_t>(SimEngine::kEvent),
        "sim engine"));

    cfg.mc.read_queue_cap = des.getU32();
    cfg.mc.write_queue_cap = des.getU32();
    cfg.mc.wq_drain_high = des.getU32();
    cfg.mc.wq_drain_low = des.getU32();
    cfg.mc.page_policy = static_cast<PagePolicy>(checkedEnum(
        des.getU8(), static_cast<std::uint64_t>(PagePolicy::kTimeout),
        "page policy"));
    cfg.mc.timeout_ton = des.getU64();

    cfg.core.rob_entries = des.getU32();
    cfg.core.width = des.getU32();
    cfg.core.mshrs = des.getU32();
    cfg.num_cores = des.getU32();
    cfg.insts_per_core = des.getU64();
    cfg.warmup_insts = des.getU64();
    cfg.seed = des.getU64();
    cfg.max_cycles = des.getU64();
    cfg.watchdog_cycles = des.getU64();
    cfg.watchdog_tail = des.getU32();

    cfg.faults.seed = des.getU64();
    cfg.faults.intensity = des.getF64();
    for (FaultSpec &spec : cfg.faults.specs) {
        spec.rate = des.getF64();
        spec.at = des.getU64();
        spec.duration = des.getU64();
        spec.chip = des.getU32();
    }

    cfg.track_epoch_stats = des.getU8() != 0;
    cfg.epoch_cycles = des.getU64();
    cfg.epoch_hi1 = des.getU32();
    cfg.epoch_hi2 = des.getU32();

    const std::string sent_signature = des.getStr();
    des.end();

    const std::string got_signature = configSignature(cfg);
    if (got_signature != sent_signature) {
        throw SerializeError(format(
            "config codec drift: decoded signature\n  {}\ndoes not "
            "match the sender's\n  {}",
            got_signature, sent_signature));
    }
    return cfg;
}

void
savePoint(Serializer &ser, const ExperimentPoint &point)
{
    ser.begin(kTagPointHdr);
    ser.putU64(point.point_id);
    ser.putStr(point.config_label);
    ser.putStr(point.workload);
    ser.end();
    saveSystemConfig(ser, point.cfg);
}

ExperimentPoint
loadPoint(Deserializer &des)
{
    ExperimentPoint point;
    des.begin(kTagPointHdr);
    point.point_id = des.getU64();
    point.config_label = des.getStr();
    point.workload = des.getStr();
    des.end();
    point.cfg = loadSystemConfig(des);
    return point;
}

void
savePoints(Serializer &ser,
           const std::vector<ExperimentPoint> &points)
{
    ser.begin(kTagPointList);
    ser.putU64(points.size());
    ser.end();
    for (const ExperimentPoint &point : points) {
        savePoint(ser, point);
    }
}

std::vector<ExperimentPoint>
loadPoints(Deserializer &des)
{
    des.begin(kTagPointList);
    const std::uint64_t count = des.getU64();
    des.end();
    if (count > (1ull << 24)) {
        throw SerializeError(
            format("implausible point count {}", count));
    }
    std::vector<ExperimentPoint> points;
    points.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        points.push_back(loadPoint(des));
    }
    return points;
}

void
saveAssignment(Serializer &ser, const Assignment &assignment)
{
    ser.begin(kTagAssign);
    ser.putU32(assignment.attempt);
    ser.putU32(assignment.opts.fault_retries);
    ser.putU64(assignment.opts.point_max_cycles);
    ser.putU64(assignment.checkpoint_every);
    ser.putStr(assignment.ckpt_path);
    ser.end();
    savePoint(ser, assignment.point);
}

Assignment
loadAssignment(Deserializer &des)
{
    Assignment assignment;
    des.begin(kTagAssign);
    assignment.attempt = des.getU32();
    assignment.opts.fault_retries = des.getU32();
    assignment.opts.point_max_cycles = des.getU64();
    assignment.checkpoint_every = des.getU64();
    assignment.ckpt_path = des.getStr();
    des.end();
    assignment.point = loadPoint(des);
    return assignment;
}

void
savePointEvent(Serializer &ser, const PointEvent &event)
{
    ser.begin(kTagEvent);
    ser.putU64(event.point_id);
    ser.putU32(event.attempt);
    ser.putU64(event.resumed_from);
    ser.putU64(event.executed_cycles);
    ser.end();
}

PointEvent
loadPointEvent(Deserializer &des)
{
    PointEvent event;
    des.begin(kTagEvent);
    event.point_id = des.getU64();
    event.attempt = des.getU32();
    event.resumed_from = des.getU64();
    event.executed_cycles = des.getU64();
    des.end();
    return event;
}

void
saveJobId(Serializer &ser, std::uint64_t job_id)
{
    ser.begin(kTagJobId);
    ser.putU64(job_id);
    ser.end();
}

std::uint64_t
loadJobId(Deserializer &des)
{
    des.begin(kTagJobId);
    const std::uint64_t job_id = des.getU64();
    des.end();
    return job_id;
}

void
saveJobStatus(Serializer &ser, const JobStatus &status)
{
    ser.begin(kTagStatus);
    ser.putU64(status.job_id);
    ser.putU8(static_cast<std::uint8_t>(status.phase));
    ser.end();
    ser.begin(kTagCounts);
    ser.putU64(status.counts.total);
    ser.putU64(status.counts.done);
    ser.putU64(status.counts.cached);
    ser.putU64(status.counts.quarantined);
    ser.putU64(status.counts.pending);
    ser.end();
}

JobStatus
loadJobStatus(Deserializer &des)
{
    JobStatus status;
    des.begin(kTagStatus);
    status.job_id = des.getU64();
    status.phase = static_cast<JobPhase>(checkedEnum(
        des.getU8(),
        static_cast<std::uint64_t>(JobPhase::kDegraded),
        "job phase"));
    des.end();
    des.begin(kTagCounts);
    status.counts.total = des.getU64();
    status.counts.done = des.getU64();
    status.counts.cached = des.getU64();
    status.counts.quarantined = des.getU64();
    status.counts.pending = des.getU64();
    des.end();
    return status;
}

void
saveManifest(Serializer &ser, const Manifest &manifest)
{
    saveJobStatus(ser, manifest.status);
    ser.begin(kTagManifest);
    ser.putU64(manifest.entries.size());
    ser.end();
    for (const ManifestEntry &entry : manifest.entries) {
        ser.begin(kTagManifest);
        ser.putU8(static_cast<std::uint8_t>(entry.source));
        ser.end();
        savePointResult(ser, entry.result);
    }
}

Manifest
loadManifest(Deserializer &des)
{
    Manifest manifest;
    manifest.status = loadJobStatus(des);
    des.begin(kTagManifest);
    const std::uint64_t count = des.getU64();
    des.end();
    if (count > (1ull << 24)) {
        throw SerializeError(
            format("implausible manifest size {}", count));
    }
    manifest.entries.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        ManifestEntry entry;
        des.begin(kTagManifest);
        entry.source = static_cast<PointSource>(checkedEnum(
            des.getU8(),
            static_cast<std::uint64_t>(PointSource::kQuarantine),
            "point source"));
        des.end();
        entry.result = loadPointResult(des);
        manifest.entries.push_back(entry);
    }
    return manifest;
}

void
saveErrorText(Serializer &ser, const std::string &text)
{
    ser.begin(kTagError);
    ser.putStr(text);
    ser.end();
}

std::string
loadErrorText(Deserializer &des)
{
    des.begin(kTagError);
    std::string text = des.getStr();
    des.end();
    return text;
}

void
saveDaemonInfo(Serializer &ser, const DaemonInfo &info)
{
    ser.begin(kTagDaemon);
    ser.putU32(info.protocol_version);
    ser.putU64(info.daemon_pid);
    ser.putU64(info.queue_depth);
    ser.putU8(info.brownout ? 1 : 0);
    ser.end();
}

DaemonInfo
loadDaemonInfo(Deserializer &des)
{
    DaemonInfo info;
    des.begin(kTagDaemon);
    info.protocol_version = des.getU32();
    info.daemon_pid = des.getU64();
    info.queue_depth = des.getU64();
    info.brownout = des.getU8() != 0;
    des.end();
    return info;
}

void
saveRetryAfter(Serializer &ser, const RetryAfter &retry)
{
    ser.begin(kTagRetry);
    ser.putF64(retry.seconds);
    ser.putStr(retry.reason);
    ser.end();
}

RetryAfter
loadRetryAfter(Deserializer &des)
{
    RetryAfter retry;
    des.begin(kTagRetry);
    retry.seconds = des.getF64();
    retry.reason = des.getStr();
    des.end();
    return retry;
}

std::vector<std::uint8_t>
sealFrame(const Serializer &ser, MsgType type)
{
    const std::vector<std::uint8_t> body = ser.finish(
        FileKind::kServeMessage, static_cast<std::uint64_t>(type));
    std::vector<std::uint8_t> frame;
    frame.reserve(8 + body.size());
    const std::uint64_t n = body.size();
    for (unsigned i = 0; i < 8; ++i) {
        frame.push_back(static_cast<std::uint8_t>(n >> (8 * i)));
    }
    frame.insert(frame.end(), body.begin(), body.end());
    return frame;
}

IoStatus
sendMessage(int fd, const Serializer &ser, MsgType type,
            double timeout_sec)
{
    const std::vector<std::uint8_t> frame = sealFrame(ser, type);
    return writeAll(fd, frame.data(), frame.size(), timeout_sec);
}

IoStatus
sendEmptyMessage(int fd, MsgType type, double timeout_sec)
{
    Serializer empty;
    return sendMessage(fd, empty, type, timeout_sec);
}

ReceivedMessage
recvMessage(int fd, double timeout_sec)
{
    ReceivedMessage msg;
    std::uint8_t len_bytes[8];
    msg.status = readExact(fd, len_bytes, sizeof(len_bytes),
                           timeout_sec);
    if (msg.status != IoStatus::kOk) {
        return msg;
    }
    std::uint64_t n = 0;
    for (unsigned i = 0; i < 8; ++i) {
        n |= static_cast<std::uint64_t>(len_bytes[i]) << (8 * i);
    }
    if (n == 0 || n > kMaxFrameBytes) {
        throw SerializeError(
            format("implausible frame length {}", n));
    }
    std::vector<std::uint8_t> body(n);
    // The length prefix arrived, so the body must follow promptly: a
    // peer that stalls mid-frame is treated as broken, not waited on
    // forever.
    const double body_budget =
        timeout_sec < 0.0 ? 30.0 : timeout_sec;
    const IoStatus body_status =
        readExact(fd, body.data(), body.size(), body_budget);
    if (body_status != IoStatus::kOk) {
        throw IoError(format("frame body {} after length prefix",
                             toString(body_status)));
    }
    msg.payload.emplace(std::move(body), FileKind::kServeMessage,
                        Deserializer::kAnyConfigHash);
    msg.type = static_cast<MsgType>(msg.payload->configHash());
    return msg;
}

} // namespace mopac::serve
