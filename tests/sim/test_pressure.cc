/**
 * @file
 * Sweep-driver pressure tests: storage failures (injected ENOSPC
 * through the serialize layer's write-fault hook) are a brownout --
 * counted, tolerated, results served from memory -- and a graceful
 * stop or an abort leaves a sweep that resumes bit-identically to a
 * clean run.
 */

#include <atomic>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.hh"
#include "point_bytes.hh"
#include "scratch_dir.hh"
#include "sim/experiment.hh"
#include "sim/faults.hh"
#include "sim/result_store.hh"
#include "sim/stop.hh"
#include "sim/sweep.hh"

namespace
{

using namespace mopac;

/** A tiny 4-point clean sweep (2 configs x 2 workloads). */
std::vector<ExperimentPoint>
tinySweep(std::uint64_t insts = 3000)
{
    SweepSpec spec;
    spec.master_seed = 17;
    for (std::uint32_t trh : {500u, 1000u}) {
        SystemConfig cfg = makeConfig(MitigationKind::kMopacD, trh);
        cfg.insts_per_core = insts;
        cfg.warmup_insts = insts / 10;
        cfg.geometry.rows_per_bank = 4096;
        spec.configs.push_back(
            {"mopac-d@" + std::to_string(trh), cfg});
    }
    spec.workloads = {"mcf", "xz"};
    return spec.expand();
}

/** Clean serial results of @p points: the reference every test
 *  compares against. */
std::vector<PointResult>
serialRun(const std::vector<ExperimentPoint> &points)
{
    RunnerOptions serial;
    serial.jobs = 1;
    return Runner(serial).run(points);
}

/** Run @p points through the sweep driver on @p workers threads. */
SweepReport
sweepOn(unsigned workers, const std::vector<ExperimentPoint> &points,
        ResultStore *store, const Runner::ProgressFn &progress = nullptr)
{
    RunnerOptions opts;
    opts.jobs = workers;
    return Runner(opts).sweep(points, store, progress);
}

/**
 * RAII: every atomicWriteFile fails with an injected ENOSPC before a
 * byte reaches the disk, until the guard goes out of scope.  Counts
 * the injections.
 */
struct FullDisk
{
    std::atomic<unsigned> injected{0};

    FullDisk()
    {
        setWriteFaultHook([this](const std::string &path) {
            injected.fetch_add(1);
            throw SerializeError("injected ENOSPC writing " + path);
        });
    }
    ~FullDisk() { setWriteFaultHook(nullptr); }
    FullDisk(const FullDisk &) = delete;
    FullDisk &operator=(const FullDisk &) = delete;
};

/** Regular files under @p dir, recursively. */
std::size_t
filesUnder(const std::string &dir)
{
    std::size_t n = 0;
    for (const auto &ent :
         std::filesystem::recursive_directory_iterator(dir)) {
        n += ent.is_regular_file() ? 1 : 0;
    }
    return n;
}

TEST(IoFaultShim, EnospcFailsAtomicWritesWithoutTornFiles)
{
    const test::ScratchDir scratch;
    const std::string dir = scratch.path("enospc");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/victim.bin";

    Serializer ser;
    const std::vector<std::uint8_t> image =
        ser.finish(FileKind::kSnapshot, 1);
    {
        FullDisk disk;
        EXPECT_THROW(atomicWriteFile(path, image), SerializeError);
        EXPECT_EQ(disk.injected.load(), 1u);
        // Failed before any byte: no file, not even a temp.
        EXPECT_FALSE(fileExists(path));
        EXPECT_EQ(filesUnder(dir), 0u);
    }
    atomicWriteFile(path, image);
    EXPECT_EQ(readFileBytes(path), image);
}

TEST(SweepPressure, EnospcBrownoutKeepsServingResults)
{
    const test::ScratchDir scratch;
    sweepstop::reset();
    const std::vector<ExperimentPoint> points = tinySweep();
    const std::vector<PointResult> clean = serialRun(points);

    // The store is created while the disk still works; then every
    // later durable write fails.  The sweep must complete from memory,
    // counting (not crashing on) each failed write.
    const std::string dir = scratch.path("brownout");
    ResultStore store(dir);

    SweepReport report;
    {
        FullDisk disk;
        report = sweepOn(2, points, &store);
        EXPECT_EQ(disk.injected.load(), points.size());
    }

    EXPECT_EQ(report.exitCode(), 0);
    // One failed store write per point, and nothing on disk.
    EXPECT_EQ(report.storage_write_failures, points.size());
    EXPECT_EQ(filesUnder(dir), 0u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(report.results[i].status, PointStatus::kOk);
        EXPECT_EQ(test::canonicalBytes(report.results[i]),
                  test::canonicalBytes(clean[i]));
        EXPECT_FALSE(store.lookup(points[i]).has_value());
    }
}

TEST(SweepStop, GracefulStopThenResumeMatchesCleanRun)
{
    const test::ScratchDir scratch;
    sweepstop::reset();
    const std::vector<ExperimentPoint> points = tinySweep();
    const std::vector<PointResult> clean = serialRun(points);
    const std::string store_dir = scratch.path("stop_store");

    // Run 1: one worker, stop as soon as the first point resolves.
    // Unstarted points stay pending.
    SweepReport partial;
    {
        ResultStore store(store_dir);
        std::size_t resolved = 0;
        partial = sweepOn(
            1, points, &store,
            [&resolved](const ExperimentPoint &, const PointResult &) {
                if (++resolved == 1) {
                    sweepstop::requestStop();
                }
            });
    }
    EXPECT_TRUE(partial.stopped);
    EXPECT_EQ(partial.exitCode(), sweepstop::kResumableExit);
    EXPECT_GE(partial.counts().pending, 2u);

    // Run 2: same store.  Finished points are served, the rest run,
    // and the merged results are bit-identical to the clean run.
    sweepstop::reset();
    ResultStore store(store_dir);
    const SweepReport full = sweepOn(1, points, &store);

    EXPECT_EQ(full.exitCode(), 0);
    EXPECT_GE(full.cache_hits, 1u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(test::canonicalBytes(full.results[i]),
                  test::canonicalBytes(clean[i]));
    }
}

TEST(SweepStop, AbortLeavesInFlightPointsNotRun)
{
    const test::ScratchDir scratch;
    sweepstop::reset();
    // Point 0 cannot finish on its own: a bank stuck open forever, no
    // watchdog and no cycle bound, so only an abort ends it.  Point
    // 1's finish requests the stop and then the abort (a second
    // signal) while point 0 is in flight, on any host: a worker
    // claims point 0 before any worker can claim point 1.
    std::vector<ExperimentPoint> points = tinySweep();
    points.resize(2);
    points[0].cfg.faults = FaultPlan::single(FaultKind::kStuckOpenBank,
                                             1.0, kNeverCycle);
    points[0].cfg.watchdog_cycles = 0;
    points[0].cfg.max_cycles = kNeverCycle - 1;
    const PointResult clean = serialRun({points[1]}).at(0);

    const std::string store_dir = scratch.path("drain_store");
    ResultStore store(store_dir);
    const SweepReport cut = sweepOn(
        2, points, &store,
        [](const ExperimentPoint &, const PointResult &) {
            sweepstop::requestStop();
            sweepstop::requestAbort();
        });
    EXPECT_TRUE(cut.stopped);
    EXPECT_EQ(cut.sources[0], PointSource::kPending);
    EXPECT_EQ(cut.results[0].status, PointStatus::kNotRun);
    EXPECT_EQ(cut.sources[1], PointSource::kFresh);
    EXPECT_EQ(cut.exitCode(), sweepstop::kResumableExit);

    // The abandoned point never reached the store, not even as a
    // quarantine artifact, so a resume runs it; the finished point is
    // stored and serves the resume with the clean run's bytes.
    sweepstop::reset();
    EXPECT_EQ(filesUnder(store_dir), 1u);
    EXPECT_FALSE(store.lookup(points[0]).has_value());
    const std::optional<PointResult> served = store.lookup(points[1]);
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(test::canonicalBytes(*served), test::canonicalBytes(clean));
}

} // namespace
