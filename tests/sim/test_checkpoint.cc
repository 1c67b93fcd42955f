/**
 * @file
 * Snapshot round-trip property suite: a run interrupted at a
 * checkpoint and resumed from the snapshot must finish bit-identically
 * to the uninterrupted run -- for every mitigation engine, and with an
 * active fault plan.  Corrupt, truncated, and mismatched snapshots
 * must fail loudly with SerializeError.  Each interrupted snapshot's
 * bytes are pinned by hash, so a field order that changes the same way
 * in the writer and the reader still shows.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "scratch_dir.hh"
#include "sim/experiment.hh"
#include "sim/stop.hh"
#include "sim/system.hh"

namespace mopac
{
namespace
{

SystemConfig
quickConfig(MitigationKind kind, std::uint32_t trh = 500)
{
    SystemConfig cfg = makeConfig(kind, trh);
    cfg.insts_per_core = 20000;
    cfg.warmup_insts = 2000;
    cfg.num_cores = 4;
    // Snapshot size scales with PRAC's per-row state; a smaller bank
    // keeps each round-trip's disk I/O (write + fsync + re-read) fast
    // without changing what the property covers.
    cfg.geometry.rows_per_bank = 4096;
    return cfg;
}

/** Every RunResult field must match bit-for-bit (doubles included). */
void
expectSameRun(const RunResult &a, const RunResult &b)
{
    ASSERT_EQ(a.ipcs.size(), b.ipcs.size());
    for (std::size_t i = 0; i < a.ipcs.size(); ++i) {
        EXPECT_EQ(a.ipcs[i], b.ipcs[i]) << "core " << i;
    }
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.timed_out, b.timed_out);
    EXPECT_EQ(a.acts, b.acts);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.refs, b.refs);
    EXPECT_EQ(a.rfms, b.rfms);
    EXPECT_EQ(a.alerts, b.alerts);
    EXPECT_EQ(a.rbhr, b.rbhr);
    EXPECT_EQ(a.apri, b.apri);
    EXPECT_EQ(a.avg_read_latency_ns, b.avg_read_latency_ns);
    EXPECT_EQ(a.max_unmitigated, b.max_unmitigated);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.faults_injected, b.faults_injected);
    EXPECT_EQ(a.counter_updates, b.counter_updates);
    EXPECT_EQ(a.srq_insertions, b.srq_insertions);
    EXPECT_EQ(a.mitigations, b.mitigations);
    EXPECT_EQ(a.ref_drains, b.ref_drains);
    EXPECT_EQ(a.act64, b.act64);
    EXPECT_EQ(a.act200, b.act200);
    EXPECT_EQ(a.epochs, b.epochs);
}

/**
 * FNV-1a of each round trip's interrupted snapshot image, by tag.
 * Snapshot bytes are a file format: a change here is a format change,
 * and old snapshots stop loading.
 */
const std::map<std::string, std::uint64_t> kSnapshotHashes = {
    {"none", 0xea13ee57884bf663ull},
    {"prac", 0xc67d3851b3be87a8ull},
    {"mopac-c", 0x418cae56ea2e18e6ull},
    {"mopac-d", 0x1c672cf7c2a521c0ull},
    {"mint", 0x412c9a521711f213ull},
    {"pride", 0x56a3b93a1eaafd7full},
    {"trr", 0x807f902a6d336484ull},
    {"para", 0xbd996b7a2e2a9b53ull},
    {"graphene", 0xec800b6cf560c732ull},
    {"qprac", 0xc2a5455a5fdcb146ull},
    {"faultplan", 0xc3059eb0aaa4b77eull},
    {"wl_bwaves", 0xe66fb710c40d748cull},
    {"wl_mix1", 0x9737e294c6c77f68ull},
};

std::uint64_t
imageHash(const std::vector<std::uint8_t> &image)
{
    return fnv1a64(std::string(image.begin(), image.end()));
}

/**
 * Interrupt @p cfg on @p workload at an early checkpoint, require the
 * snapshot's bytes to hash to @p tag's pinned value, resume from the
 * snapshot, and require the final result to equal the uninterrupted
 * reference.
 */
void
roundTrip(const SystemConfig &cfg, const std::string &workload,
          const std::string &tag)
{
    const RunResult reference = runWorkload(cfg, workload);

    const test::ScratchDir scratch;
    const std::string path = scratch.path(tag + ".bin");

    // A pre-requested stop halts the run at the first checkpoint
    // boundary and flushes the snapshot -- the in-process equivalent
    // of SIGINT (or a crash right after the atomic snapshot write).
    sweepstop::reset();
    sweepstop::requestStop();
    CheckpointOptions save;
    save.save_path = path;
    save.checkpoint_every = 5000;
    const CheckpointedRun interrupted =
        runWorkloadCheckpointed(cfg, workload, save);
    sweepstop::reset();
    EXPECT_FALSE(interrupted.finished) << tag;
    EXPECT_GT(interrupted.stopped_at, 0u) << tag;
    ASSERT_TRUE(fileExists(path)) << tag;
    const auto pinned = kSnapshotHashes.find(tag);
    ASSERT_NE(pinned, kSnapshotHashes.end()) << tag;
    EXPECT_EQ(imageHash(readFileBytes(path)), pinned->second)
        << tag << std::hex << " hashes to 0x"
        << imageHash(readFileBytes(path));

    CheckpointOptions restore;
    restore.restore_path = path;
    const CheckpointedRun resumed =
        runWorkloadCheckpointed(cfg, workload, restore);
    EXPECT_TRUE(resumed.finished) << tag;
    expectSameRun(reference, resumed.result);
}

TEST(Checkpoint, EveryEngineResumesBitIdentically)
{
    for (MitigationKind kind :
         {MitigationKind::kNone, MitigationKind::kPracMoat,
          MitigationKind::kMopacC, MitigationKind::kMopacD,
          MitigationKind::kMint, MitigationKind::kPride,
          MitigationKind::kTrr, MitigationKind::kPara,
          MitigationKind::kGraphene, MitigationKind::kQprac}) {
        roundTrip(quickConfig(kind), "mcf", std::string(toString(kind)));
    }
}

TEST(Checkpoint, SurvivesAnActiveFaultPlan)
{
    SystemConfig cfg = quickConfig(MitigationKind::kMopacD);
    cfg.faults =
        FaultPlan::single(FaultKind::kCounterBitflip, 0.01);
    cfg.faults.seed = 99;
    roundTrip(cfg, "mcf", "faultplan");
}

TEST(Checkpoint, WorksAcrossWorkloadShapes)
{
    for (const char *workload : {"bwaves", "mix1"}) {
        roundTrip(quickConfig(MitigationKind::kMopacC), workload,
                  std::string("wl_") + workload);
    }
}

TEST(Checkpoint, ChunkedRunMatchesPlainRunWhenUninterrupted)
{
    sweepstop::reset();
    const SystemConfig cfg = quickConfig(MitigationKind::kMopacD);
    const RunResult reference = runWorkload(cfg, "omnetpp");
    const test::ScratchDir scratch;
    CheckpointOptions ckpt;
    ckpt.save_path = scratch.path("chunked.bin");
    ckpt.checkpoint_every = 4096; // Many periodic snapshots.
    const CheckpointedRun chunked =
        runWorkloadCheckpointed(cfg, "omnetpp", ckpt);
    ASSERT_TRUE(chunked.finished);
    expectSameRun(reference, chunked.result);
}

class CheckpointCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cfg_ = quickConfig(MitigationKind::kMopacD);
        path_ = scratch_.path("corruption.bin");
        sweepstop::reset();
        sweepstop::requestStop();
        CheckpointOptions save;
        save.save_path = path_;
        save.checkpoint_every = 5000;
        const CheckpointedRun run =
            runWorkloadCheckpointed(cfg_, "mcf", save);
        sweepstop::reset();
        ASSERT_FALSE(run.finished);
        ASSERT_TRUE(fileExists(path_));
    }

    void
    TearDown() override
    {
        sweepstop::reset();
    }

    /** Restoring @p image must throw SerializeError, never crash. */
    void
    expectRejected(const std::vector<std::uint8_t> &image,
                   const char *what)
    {
        atomicWriteFile(path_, image);
        CheckpointOptions restore;
        restore.restore_path = path_;
        EXPECT_THROW(runWorkloadCheckpointed(cfg_, "mcf", restore),
                     SerializeError)
            << what;
    }

    test::ScratchDir scratch_;
    SystemConfig cfg_;
    std::string path_;
};

TEST_F(CheckpointCorruption, BitFlipFuzzFailsLoudly)
{
    const std::vector<std::uint8_t> image = readFileBytes(path_);
    // Deterministic fuzz: flip one bit at 16 positions spread over
    // the whole image (envelope, payload, and CRC trailer).  The
    // exhaustive every-bit variant lives in test_serialize.cc on a
    // small image; this pass proves the same rejection on a real,
    // large snapshot end to end.
    std::uint64_t lcg = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 16; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t byte = (lcg >> 33) % image.size();
        const int bit = static_cast<int>(lcg & 7);
        std::vector<std::uint8_t> mutant = image;
        mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
        expectRejected(mutant, "single bit flip");
    }
}

TEST_F(CheckpointCorruption, TruncationFailsLoudly)
{
    const std::vector<std::uint8_t> image = readFileBytes(path_);
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{7}, std::size_t{23},
          image.size() / 2, image.size() - 1}) {
        expectRejected(
            std::vector<std::uint8_t>(image.begin(),
                                      image.begin() + len),
            "truncation");
    }
}

TEST_F(CheckpointCorruption, ConfigMismatchFailsLoudly)
{
    CheckpointOptions restore;
    restore.restore_path = path_;
    // Different threshold -> different config hash -> rejected before
    // any state is touched.
    SystemConfig other = quickConfig(MitigationKind::kMopacD, 1000);
    EXPECT_THROW(runWorkloadCheckpointed(other, "mcf", restore),
                 SerializeError);
    // Different workload, same config: also rejected.
    EXPECT_THROW(runWorkloadCheckpointed(cfg_, "bwaves", restore),
                 SerializeError);
    // Different engine: rejected.
    EXPECT_THROW(runWorkloadCheckpointed(
                     quickConfig(MitigationKind::kMint), "mcf",
                     restore),
                 SerializeError);
}

TEST_F(CheckpointCorruption, ForeignFileFailsLoudly)
{
    expectRejected({'n', 'o', 't', ' ', 'a', ' ', 's', 'n', 'a', 'p'},
                   "foreign bytes");
}

} // namespace
} // namespace mopac
