/**
 * @file
 * Wire codec + framing implementation.
 */

#include "protocol.hh"

#include <vector>

#include "common/format.hh"

namespace mopac::serve
{

namespace
{

/** Section tags (serve-layer range, disjoint from store tags). */
constexpr std::uint32_t kTagConfig = 0x53434647; // 'SCFG'
constexpr std::uint32_t kTagPointHdr = 0x53505448; // 'SPTH'
constexpr std::uint32_t kTagAssign = 0x5341474E; // 'SAGN'
constexpr std::uint32_t kTagEvent = 0x53455654;  // 'SEVT'

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

/** Seal @p ser into a full frame (length prefix + container). */
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

} // namespace

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
    // The length prefix arrived, so the body must follow within the
    // same budget: a peer that stalls mid-frame is treated as broken.
    const IoStatus body_status =
        readExact(fd, body.data(), body.size(), timeout_sec);
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
