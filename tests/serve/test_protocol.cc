/**
 * @file
 * Wire-protocol tests for the serve layer: codec round-trips (config
 * drift guard included), framing over a real socketpair,
 * timeout/peer-closed outcomes, and corrupt-frame rejection.
 */

#include <vector>

#include <gtest/gtest.h>

#include "serve/io.hh"
#include "serve/protocol.hh"
#include "sim/experiment.hh"
#include "sim/sweep.hh"

namespace
{

using namespace mopac;
using namespace mopac::serve;

SystemConfig
sampleConfig()
{
    SystemConfig cfg = makeConfig(MitigationKind::kMopacC, 500);
    cfg.seed = 0xfeedbeef;
    cfg.insts_per_core = 12345;
    cfg.warmup_insts = 678;
    cfg.faults = FaultPlan::single(FaultKind::kAlertDrop, 0.125);
    return cfg;
}

ExperimentPoint
samplePoint(std::uint64_t id = 3)
{
    ExperimentPoint p;
    p.point_id = id;
    p.config_label = "mopac-c@500";
    p.workload = "mcf";
    p.cfg = sampleConfig();
    p.cfg.seed += id; // distinct identity per id
    return p;
}

TEST(ServeProtocol, SystemConfigRoundTripsWithMatchingSignature)
{
    const SystemConfig cfg = sampleConfig();
    Serializer ser;
    saveSystemConfig(ser, cfg);
    const auto bytes = ser.finish(FileKind::kServeMessage, 0);

    Deserializer des(bytes, FileKind::kServeMessage, 0);
    const SystemConfig back = loadSystemConfig(des);
    des.finish();
    EXPECT_EQ(configSignature(back), configSignature(cfg));
    EXPECT_EQ(back.seed, cfg.seed);
    EXPECT_EQ(back.faults.intensity, cfg.faults.intensity);
}

TEST(ServeProtocol, TamperedConfigBytesAreAStructuredError)
{
    Serializer ser;
    saveSystemConfig(ser, sampleConfig());
    auto bytes = ser.finish(FileKind::kServeMessage, 0);
    bytes[bytes.size() / 2] ^= 0x40; // payload bit flip
    EXPECT_THROW(Deserializer(bytes, FileKind::kServeMessage, 0),
                 SerializeError);
}

TEST(ServeProtocol, AssignmentAndEventsRoundTrip)
{
    Assignment assign;
    assign.attempt = 4;
    assign.opts.fault_retries = 2;
    assign.opts.point_max_cycles = 1 << 20;
    assign.checkpoint_every = 12345;
    assign.point = samplePoint(9);
    Serializer ser;
    saveAssignment(ser, assign);
    const auto bytes = ser.finish(FileKind::kServeMessage, 0);

    Deserializer des(bytes, FileKind::kServeMessage, 0);
    const Assignment back = loadAssignment(des);
    des.finish();
    EXPECT_EQ(back.attempt, assign.attempt);
    EXPECT_EQ(back.opts.fault_retries, assign.opts.fault_retries);
    EXPECT_EQ(back.opts.point_max_cycles,
              assign.opts.point_max_cycles);
    EXPECT_EQ(back.checkpoint_every, assign.checkpoint_every);
    EXPECT_EQ(back.point.point_id, assign.point.point_id);

    PointEvent event{77, 3};
    Serializer ser2;
    savePointEvent(ser2, event);
    const auto bytes2 = ser2.finish(FileKind::kServeMessage, 0);
    Deserializer des2(bytes2, FileKind::kServeMessage, 0);
    const PointEvent back2 = loadPointEvent(des2);
    des2.finish();
    EXPECT_EQ(back2.point_id, event.point_id);
    EXPECT_EQ(back2.attempt, event.attempt);
}

TEST(ServeProtocol, FramesRoundTripOverASocketpair)
{
    SocketPair pair = makeSocketPair();
    Serializer ser;
    savePointEvent(ser, PointEvent{0x1234, 2});
    ASSERT_EQ(sendMessage(pair.worker_fd, ser, MsgType::kPointStart,
                          1.0),
              IoStatus::kOk);

    ReceivedMessage msg = recvMessage(pair.supervisor_fd, 1.0);
    ASSERT_EQ(msg.status, IoStatus::kOk);
    EXPECT_EQ(msg.type, MsgType::kPointStart);
    ASSERT_TRUE(msg.payload.has_value());
    const PointEvent event = loadPointEvent(*msg.payload);
    EXPECT_EQ(event.point_id, 0x1234u);
    EXPECT_EQ(event.attempt, 2u);
    msg.payload->finish();

    // Empty payloads (heartbeats et al.) carry only the envelope.
    ASSERT_EQ(sendEmptyMessage(pair.worker_fd, MsgType::kHeartbeat, 1.0),
              IoStatus::kOk);
    ReceivedMessage beat = recvMessage(pair.supervisor_fd, 1.0);
    EXPECT_EQ(beat.status, IoStatus::kOk);
    EXPECT_EQ(beat.type, MsgType::kHeartbeat);

    closeQuiet(pair.supervisor_fd);
    closeQuiet(pair.worker_fd);
}

TEST(ServeProtocol, RecvTimesOutOnASilentPeer)
{
    SocketPair pair = makeSocketPair();
    const ReceivedMessage msg = recvMessage(pair.worker_fd, 0.05);
    EXPECT_EQ(msg.status, IoStatus::kTimeout);
    closeQuiet(pair.supervisor_fd);
    closeQuiet(pair.worker_fd);
}

TEST(ServeProtocol, RecvReportsAClosedPeer)
{
    SocketPair pair = makeSocketPair();
    closeQuiet(pair.supervisor_fd);
    const ReceivedMessage msg = recvMessage(pair.worker_fd, 0.5);
    EXPECT_EQ(msg.status, IoStatus::kPeerClosed);
    closeQuiet(pair.worker_fd);
}

TEST(ServeProtocol, OversizedFrameLengthIsRejected)
{
    SocketPair pair = makeSocketPair();
    // A length prefix claiming > kMaxFrameBytes must be rejected
    // before any allocation attempt.
    std::uint8_t prefix[8];
    const std::uint64_t huge = kMaxFrameBytes + 1;
    for (int i = 0; i < 8; ++i) {
        prefix[i] = static_cast<std::uint8_t>(huge >> (8 * i));
    }
    ASSERT_EQ(writeAll(pair.supervisor_fd, prefix, sizeof(prefix), 1.0),
              IoStatus::kOk);
    EXPECT_THROW(recvMessage(pair.worker_fd, 0.5), SerializeError);
    closeQuiet(pair.supervisor_fd);
    closeQuiet(pair.worker_fd);
}

TEST(ServeProtocol, GarbagePayloadIsAStructuredError)
{
    SocketPair pair = makeSocketPair();
    std::vector<std::uint8_t> junk(64, 0x5a);
    std::uint8_t prefix[8] = {64, 0, 0, 0, 0, 0, 0, 0};
    ASSERT_EQ(writeAll(pair.supervisor_fd, prefix, sizeof(prefix), 1.0),
              IoStatus::kOk);
    ASSERT_EQ(writeAll(pair.supervisor_fd, junk.data(), junk.size(),
                       1.0),
              IoStatus::kOk);
    EXPECT_THROW(recvMessage(pair.worker_fd, 0.5), SerializeError);
    closeQuiet(pair.supervisor_fd);
    closeQuiet(pair.worker_fd);
}

} // namespace
