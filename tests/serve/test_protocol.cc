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

TEST(ServeProtocol, PointListRoundTrips)
{
    std::vector<ExperimentPoint> points = {samplePoint(0),
                                           samplePoint(1)};
    points[1].workload = "xz";
    Serializer ser;
    savePoints(ser, points);
    const auto bytes = ser.finish(FileKind::kServeMessage, 0);

    Deserializer des(bytes, FileKind::kServeMessage, 0);
    const std::vector<ExperimentPoint> back = loadPoints(des);
    des.finish();
    ASSERT_EQ(back.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(back[i].point_id, points[i].point_id);
        EXPECT_EQ(back[i].config_label, points[i].config_label);
        EXPECT_EQ(back[i].workload, points[i].workload);
        EXPECT_EQ(configSignature(back[i].cfg),
                  configSignature(points[i].cfg));
    }
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

TEST(ServeProtocol, ManifestRoundTrips)
{
    Manifest manifest;
    manifest.status.job_id = 0xabcdef;
    manifest.status.phase = JobPhase::kDegraded;
    manifest.status.counts.total = 2;
    manifest.status.counts.done = 1;
    manifest.status.counts.quarantined = 1;
    ManifestEntry ok;
    ok.source = PointSource::kCache;
    ok.result.point_id = 0;
    ok.result.status = PointStatus::kOk;
    ok.result.seed = 11;
    ManifestEntry bad;
    bad.source = PointSource::kQuarantine;
    bad.result.point_id = 1;
    bad.result.status = PointStatus::kFailed;
    bad.result.error = "worker died 3 times";
    bad.result.outcome = OutcomeClass::kHung;
    manifest.entries = {ok, bad};

    Serializer ser;
    saveManifest(ser, manifest);
    const auto bytes = ser.finish(FileKind::kServeMessage, 0);
    Deserializer des(bytes, FileKind::kServeMessage, 0);
    const Manifest back = loadManifest(des);
    des.finish();
    EXPECT_EQ(back.status.job_id, manifest.status.job_id);
    EXPECT_EQ(back.status.phase, manifest.status.phase);
    EXPECT_EQ(back.status.counts.quarantined, 1u);
    ASSERT_EQ(back.entries.size(), 2u);
    EXPECT_EQ(back.entries[0].source, PointSource::kCache);
    EXPECT_EQ(back.entries[1].source, PointSource::kQuarantine);
    EXPECT_EQ(back.entries[1].result.error, bad.result.error);
    EXPECT_EQ(back.entries[1].result.outcome, OutcomeClass::kHung);
}

TEST(ServeProtocol, FramesRoundTripOverASocketpair)
{
    SocketPair pair = makeSocketPair();
    Serializer ser;
    saveJobId(ser, 0x1234);
    ASSERT_EQ(sendMessage(pair.supervisor_fd, ser, MsgType::kQuery,
                          1.0),
              IoStatus::kOk);

    ReceivedMessage msg = recvMessage(pair.worker_fd, 1.0);
    ASSERT_EQ(msg.status, IoStatus::kOk);
    EXPECT_EQ(msg.type, MsgType::kQuery);
    ASSERT_TRUE(msg.payload.has_value());
    EXPECT_EQ(loadJobId(*msg.payload), 0x1234u);
    msg.payload->finish();

    // Empty payloads (ping et al.) carry only the envelope.
    ASSERT_EQ(sendEmptyMessage(pair.worker_fd, MsgType::kPing, 1.0),
              IoStatus::kOk);
    ReceivedMessage ping = recvMessage(pair.supervisor_fd, 1.0);
    EXPECT_EQ(ping.status, IoStatus::kOk);
    EXPECT_EQ(ping.type, MsgType::kPing);

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
