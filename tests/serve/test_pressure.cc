/**
 * @file
 * Resource-pressure tests: the syscall fault shim (deterministic
 * ENOSPC / EINTR / short-write injection), budgeted result-store
 * eviction, brownout (storage failures tolerated, results served from
 * memory) and graceful stop / drain on both pools of the sweep driver,
 * and checkpointed preemption with zero-rework resume.
 *
 * The shim's socketpair reader thread never overlaps a fork, and
 * forking tests never run with live threads, so the whole file is
 * clean under ThreadSanitizer.
 */

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.hh"
#include "point_bytes.hh"
#include "scratch_dir.hh"
#include "serve/io.hh"
#include "serve/supervisor.hh"
#include "sim/experiment.hh"
#include "sim/result_store.hh"
#include "sim/stop.hh"
#include "sim/sweep.hh"

namespace
{

using namespace mopac;
using namespace mopac::serve;

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
        // Snapshot size scales with PRAC's per-row state; the preempt
        // tests checkpoint every interval, so a smaller bank keeps
        // each snapshot write fast (same idiom as test_checkpoint).
        cfg.geometry.rows_per_bank = 4096;
        spec.configs.push_back(
            {"mopac-d@" + std::to_string(trh), cfg});
    }
    spec.workloads = {"mcf", "xz"};
    return spec.expand();
}

SupervisorOptions
fastOptions()
{
    SupervisorOptions opts;
    opts.heartbeat_sec = 0.1;
    opts.hang_timeout_sec = 20.0;
    opts.backoff_base_sec = 0.01;
    opts.backoff_cap_sec = 0.04;
    return opts;
}

/** Which pool executes a driver sweep. */
enum class PoolKind
{
    kThreads,
    kProcesses,
};

const char *
toString(PoolKind kind)
{
    return kind == PoolKind::kThreads ? "threads" : "processes";
}

/** gtest value printer, so test names show the pool by name. */
void
PrintTo(PoolKind kind, std::ostream *os)
{
    *os << toString(kind);
}

std::string
poolName(const ::testing::TestParamInfo<PoolKind> &info)
{
    return toString(info.param);
}

/**
 * Run @p points through the sweep driver with @p workers on @p kind:
 * the Runner's threads, or a Supervisor built from @p sup_opts.
 */
SweepReport
sweepOn(PoolKind kind, unsigned workers,
        const std::vector<ExperimentPoint> &points, ResultStore *store,
        const Runner::ProgressFn &progress = nullptr,
        double drain_deadline_sec = 0.0,
        const SupervisorOptions &sup_opts = fastOptions())
{
    RunnerOptions opts;
    opts.jobs = workers;
    opts.drain_deadline_sec = drain_deadline_sec;
    if (kind == PoolKind::kThreads) {
        return Runner(opts).sweep(points, store, progress);
    }
    Supervisor sup(sup_opts);
    return Runner(opts).sweep(points, store, progress, &sup);
}

/** RAII: whatever happens in the test, disarm the fault shim. */
struct ShimGuard
{
    explicit ShimGuard(const IoFaultConfig &config)
    {
        setIoFaultShim(config);
    }
    ~ShimGuard() { setIoFaultShim(IoFaultConfig{}); }
};

// ------------------------------------------------------------------
// The fault shim itself
// ------------------------------------------------------------------

/** Push @p payload through a socketpair under the live shim. */
std::vector<std::uint8_t>
roundTrip(const std::vector<std::uint8_t> &payload)
{
    const SocketPair pair = makeSocketPair();
    std::vector<std::uint8_t> got(payload.size(), 0);
    std::thread reader([&] {
        ASSERT_EQ(readExact(pair.worker_fd, got.data(), got.size(),
                            30.0),
                  IoStatus::kOk);
    });
    EXPECT_EQ(writeAll(pair.supervisor_fd, payload.data(),
                       payload.size(), 30.0),
              IoStatus::kOk);
    reader.join();
    closeQuiet(pair.supervisor_fd);
    closeQuiet(pair.worker_fd);
    return got;
}

TEST(IoFaultShim, EintrAndShortWritesPreserveByteStreams)
{
    // 100 KiB with both EINTR skips and short-write truncation
    // injected at a high rate: the retry/continuation loops must
    // still deliver every byte in order.
    std::vector<std::uint8_t> payload(100 * 1024);
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
    }
    IoFaultConfig config;
    config.seed = 42;
    config.eintr_rate = 0.4;
    config.short_write_rate = 0.4;
    ShimGuard shim(config);

    const std::vector<std::uint8_t> got = roundTrip(payload);
    EXPECT_EQ(got, payload);
    const IoFaultStats stats = ioFaultShimStats();
    EXPECT_GT(stats.eintr, 0u);
    EXPECT_GT(stats.short_writes, 0u);
}

TEST(IoFaultShim, InjectionSequenceIsDeterministic)
{
    // Same seed, same call sequence => identical injection counts:
    // decisions are counter-mode draws, not wall-clock noise.
    std::vector<std::uint8_t> payload(32 * 1024, 0x5a);
    IoFaultConfig config;
    config.seed = 7;
    config.eintr_rate = 0.3;
    config.short_write_rate = 0.3;

    IoFaultStats first;
    {
        ShimGuard shim(config);
        (void)roundTrip(payload);
        first = ioFaultShimStats();
    }
    IoFaultStats second;
    {
        ShimGuard shim(config);
        (void)roundTrip(payload);
        second = ioFaultShimStats();
    }
    EXPECT_GT(first.eintr + first.short_writes, 0u);
    EXPECT_EQ(first.eintr, second.eintr);
    EXPECT_EQ(first.short_writes, second.short_writes);
}

TEST(IoFaultShim, EnospcFailsAtomicWritesWithoutTornFiles)
{
    const test::ScratchDir scratch;
    const std::string dir = scratch.path("enospc");
    ensureDir(dir);
    const std::string path = dir + "/victim.bin";

    Serializer ser;
    const std::vector<std::uint8_t> image =
        ser.finish(FileKind::kSnapshot, 1);
    IoFaultConfig config;
    config.seed = 11;
    config.enospc_rate = 1.0;
    {
        ShimGuard shim(config);
        EXPECT_THROW(atomicWriteFile(path, image), SerializeError);
        EXPECT_GE(ioFaultShimStats().enospc, 1u);
        // Failed before any byte: no file, not even a temp.
        EXPECT_FALSE(fileExists(path));
    }
    atomicWriteFile(path, image);
    EXPECT_EQ(readFileBytes(path), image);
}

// ------------------------------------------------------------------
// Budgeted result-store eviction
// ------------------------------------------------------------------

TEST(CachePressure, BudgetEvictsOldestInsertionFirst)
{
    const test::ScratchDir scratch;
    const std::vector<ExperimentPoint> points = tinySweep();
    const RunnerOptions opts;
    PointResult result;
    result.status = PointStatus::kOk;
    result.run.cycles = 1234;

    const std::string dir = scratch.path("cache_budget");
    ResultStore store(dir);
    for (const ExperimentPoint &point : points) {
        result.point_id = point.point_id;
        store.put(point, opts, result);
    }
    const std::uint64_t full = store.totalBytes();
    ASSERT_GT(full, 0u);
    EXPECT_EQ(store.evictions(), 0u);

    // Budget for roughly half: the earliest-put entries go first.
    store.setBudget(full / 2);
    EXPECT_GT(store.evictions(), 0u);
    EXPECT_LE(store.totalBytes(), full / 2);
    EXPECT_FALSE(store.lookup(points[0], opts).has_value());
    EXPECT_TRUE(store.lookup(points.back(), opts).has_value());

    // A reopened store rebuilds the same accounting from disk (the
    // sequence numbers are persisted in the entries).
    ResultStore reopened(dir);
    EXPECT_EQ(reopened.totalBytes(), store.totalBytes());
    EXPECT_TRUE(reopened.lookup(points.back(), opts).has_value());
}

TEST(CachePressure, EvictionOrderIsAPureFunctionOfStoreHistory)
{
    const test::ScratchDir scratch;
    // Two stores fed the same put sequence and budget evict the same
    // keys -- insertion-order FIFO, never access time (lookups
    // between puts must not perturb it).
    const std::vector<ExperimentPoint> points = tinySweep();
    const RunnerOptions opts;
    PointResult result;
    result.status = PointStatus::kOk;

    std::vector<bool> survive_a;
    std::vector<bool> survive_b;
    for (const char *tag : {"order_a", "order_b"}) {
        const std::string dir = scratch.path(tag);
        ResultStore store(dir);
        for (const ExperimentPoint &point : points) {
            result.point_id = point.point_id;
            store.put(point, opts, result);
            if (std::string(tag) == "order_b") {
                // Access-pattern noise in one replica only.
                (void)store.lookup(points[0], opts);
            }
        }
        store.setBudget(store.totalBytes() / 2);
        std::vector<bool> &survive =
            std::string(tag) == "order_a" ? survive_a : survive_b;
        for (const ExperimentPoint &point : points) {
            survive.push_back(store.lookup(point, opts).has_value());
        }
    }
    EXPECT_EQ(survive_a, survive_b);
}

// ------------------------------------------------------------------
// Driver sweeps under storage pressure (brownout), on both pools
// ------------------------------------------------------------------

class SweepPressure : public ::testing::TestWithParam<PoolKind>
{
};

INSTANTIATE_TEST_SUITE_P(BothPools, SweepPressure,
                         ::testing::Values(PoolKind::kThreads,
                                           PoolKind::kProcesses),
                         poolName);

TEST_P(SweepPressure, EnospcBrownoutKeepsServingResults)
{
    const test::ScratchDir scratch;
    sweepstop::reset();
    const std::vector<ExperimentPoint> points = tinySweep();

    RunnerOptions serial;
    serial.jobs = 1;
    const std::vector<PointResult> clean = Runner(serial).run(points);

    // The store is created while the disk still works; then every
    // later durable write fails.  The sweep must complete from memory,
    // counting (not crashing on) each failed write.
    const std::string dir = scratch.path("brownout");
    ResultStore store(dir);

    IoFaultConfig config;
    config.seed = 13;
    config.enospc_rate = 1.0;
    ShimGuard shim(config);

    const SweepReport report = sweepOn(GetParam(), 2, points, &store);

    EXPECT_EQ(report.exitCode(), 0);
    // One failed store write per point, and nothing on disk.
    EXPECT_EQ(report.storage_write_failures, points.size());
    EXPECT_EQ(store.totalBytes(), 0u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(report.results[i].status, PointStatus::kOk);
        EXPECT_EQ(test::canonicalBytes(report.results[i]),
                  test::canonicalBytes(clean[i]));
        EXPECT_FALSE(store.lookup(points[i], RunnerOptions{}).has_value());
    }
}

// ------------------------------------------------------------------
// Checkpointed preemption
// ------------------------------------------------------------------

/** Clean serial reference + a checkpoint interval that guarantees
 *  several checkpoints inside every point. */
struct PreemptFixture
{
    std::vector<ExperimentPoint> points;
    std::vector<PointResult> clean;
    std::uint64_t total_cycles = 0;
    std::uint64_t checkpoint_every = 0;

    PreemptFixture()
    {
        sweepstop::reset();
        points = tinySweep();
        RunnerOptions serial;
        serial.jobs = 1;
        clean = Runner(serial).run(points);
        std::uint64_t min_cycles = ~0ull;
        for (const PointResult &r : clean) {
            total_cycles += r.run.cycles;
            min_cycles = std::min(min_cycles, r.run.cycles);
        }
        checkpoint_every = std::max<std::uint64_t>(1, min_cycles / 4);
    }

    SupervisorOptions options(const std::string &ckpt_dir) const
    {
        SupervisorOptions opts = fastOptions();
        opts.checkpoint_every = checkpoint_every;
        opts.checkpoint_dir = ckpt_dir;
        return opts;
    }
};

/** Run @p points through the driver on @p sup with two workers. */
SweepReport
supervised(Supervisor &sup, const std::vector<ExperimentPoint> &points)
{
    RunnerOptions opts;
    opts.jobs = 2;
    return Runner(opts).sweep(points, nullptr, nullptr, &sup);
}

TEST(SupervisorPreempt, PreemptedPointResumesWithZeroRework)
{
    const test::ScratchDir scratch;
    const PreemptFixture fix;
    const std::uint64_t victim = fix.points[1].point_id;
    const std::string ckpt_dir = scratch.path("preempt_ckpt");

    Supervisor sup(fix.options(ckpt_dir));
    sup.setFailSchedule({{{victim, 1}, FailAction::kPreemptPoint}});
    const SweepReport report = supervised(sup, fix.points);
    const SupervisorStats &pool = sup.stats();

    EXPECT_EQ(report.exitCode(), 0);
    EXPECT_EQ(pool.points_preempted, 1u);
    EXPECT_EQ(pool.workers_crashed, 0u) << "preempt is not a crash";

    // The yield is requeued with no strike and no backoff delay.
    const auto &trace = pool.retries.at(victim);
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace[0].reason, "preempt");
    EXPECT_DOUBLE_EQ(trace[0].delay_sec, 0.0);

    // The retry resumed from the checkpoint, not from cycle 0.
    EXPECT_GT(pool.resumed_from.at(victim), 0u);

    // Zero rework: cycles executed across every attempt (durable
    // checkpoint work + resumed completion) equals the clean serial
    // total exactly.
    EXPECT_EQ(pool.cycles_executed, fix.total_cycles);

    // Preemption is invisible in the results: bit-identical to the
    // uninterrupted serial run, and the checkpoint file is gone.
    for (std::size_t i = 0; i < fix.points.size(); ++i) {
        EXPECT_EQ(test::canonicalBytes(report.results[i]),
                  test::canonicalBytes(fix.clean[i]));
    }
    EXPECT_FALSE(fileExists(ckpt_dir + "/" + std::to_string(victim) +
                            ".ckpt"));
}

TEST(SupervisorPreempt, KillAtCheckpointLosesNoWork)
{
    const test::ScratchDir scratch;
    const PreemptFixture fix;
    const std::uint64_t victim = fix.points[2].point_id;
    const std::string ckpt_dir = scratch.path("killckpt");

    Supervisor sup(fix.options(ckpt_dir));
    sup.setFailSchedule({{{victim, 1}, FailAction::kKillAtCheckpoint}});
    const SweepReport report = supervised(sup, fix.points);
    const SupervisorStats &pool = sup.stats();

    EXPECT_EQ(report.exitCode(), 0);
    EXPECT_EQ(pool.workers_crashed, 1u);

    // A kill is a strike and retries through crash backoff...
    const auto &trace = pool.retries.at(victim);
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace[0].reason, "crash");

    // ...but because the worker was blocked at the rendezvous, the
    // kill landed exactly at the checkpointed cycle: the retry
    // resumes there and the executed-cycle ledger balances exactly
    // (no work ran twice, none was lost).
    EXPECT_GT(pool.resumed_from.at(victim), 0u);
    EXPECT_EQ(pool.cycles_executed, fix.total_cycles);

    for (std::size_t i = 0; i < fix.points.size(); ++i) {
        EXPECT_EQ(test::canonicalBytes(report.results[i]),
                  test::canonicalBytes(fix.clean[i]));
    }
}

TEST(SupervisorPreempt, MidIntervalKillReworkIsBoundedByOneInterval)
{
    const test::ScratchDir scratch;
    // A plain SIGKILL at point start (not at a rendezvous): the
    // attempt dies with whatever checkpoints it had made; the ledger
    // may exceed the clean total only by work inside one checkpoint
    // interval.
    const PreemptFixture fix;
    const std::uint64_t victim = fix.points[0].point_id;
    const std::string ckpt_dir = scratch.path("midkill");

    Supervisor sup(fix.options(ckpt_dir));
    sup.setFailSchedule({{{victim, 1}, FailAction::kKillWorker}});
    const SweepReport report = supervised(sup, fix.points);

    EXPECT_EQ(report.exitCode(), 0);
    EXPECT_GE(sup.stats().cycles_executed, fix.total_cycles);
    EXPECT_LE(sup.stats().cycles_executed,
              fix.total_cycles + fix.checkpoint_every);
    for (std::size_t i = 0; i < fix.points.size(); ++i) {
        EXPECT_EQ(test::canonicalBytes(report.results[i]),
                  test::canonicalBytes(fix.clean[i]));
    }
}

// ------------------------------------------------------------------
// Graceful stop and the drain deadline, on both pools
// ------------------------------------------------------------------

class SweepStop : public ::testing::TestWithParam<PoolKind>
{
};

INSTANTIATE_TEST_SUITE_P(BothPools, SweepStop,
                         ::testing::Values(PoolKind::kThreads,
                                           PoolKind::kProcesses),
                         poolName);

TEST_P(SweepStop, GracefulStopThenResumeMatchesCleanRun)
{
    const test::ScratchDir scratch;
    const PreemptFixture fix;
    const std::string ckpt_dir = scratch.path("stop_ckpt");
    const std::string store_dir = scratch.path("stop_store");

    // Run 1: one worker, stop as soon as the first point resolves.
    // Unstarted points stay pending.
    SweepReport partial;
    {
        ResultStore store(store_dir);
        std::size_t resolved = 0;
        partial = sweepOn(
            GetParam(), 1, fix.points, &store,
            [&resolved](const ExperimentPoint &, const PointResult &) {
                if (++resolved == 1) {
                    sweepstop::requestStop();
                }
            },
            0.0, fix.options(ckpt_dir));
    }
    EXPECT_TRUE(partial.stopped);
    EXPECT_EQ(partial.exitCode(), sweepstop::kResumableExit);
    std::size_t pending = 0;
    for (const PointSource source : partial.sources) {
        pending += source == PointSource::kPending ? 1 : 0;
    }
    EXPECT_GE(pending, 2u);

    // Run 2: same store (+ checkpoint dir on the process pool).
    // Finished points are served, a point that was checkpointed when
    // the stop drained it resumes mid-stream (the kAssign carries the
    // surviving .ckpt), and the merged results are bit-identical to
    // the clean run.
    sweepstop::reset();
    ResultStore store(store_dir);
    const SweepReport full = sweepOn(GetParam(), 1, fix.points, &store,
                                     nullptr, 0.0,
                                     fix.options(ckpt_dir));

    EXPECT_EQ(full.exitCode(), 0);
    EXPECT_GE(full.cache_hits, 1u);
    for (std::size_t i = 0; i < fix.points.size(); ++i) {
        EXPECT_EQ(test::canonicalBytes(full.results[i]),
                  test::canonicalBytes(fix.clean[i]));
    }
}

TEST_P(SweepStop, ExpiredDrainDeadlineLeavesInFlightPointsNotRun)
{
    const test::ScratchDir scratch;
    sweepstop::reset();
    // Point 0 runs far longer than point 1.  Both pools start points
    // in sweep order, so point 0 is in flight when point 1's finish
    // requests the stop; the drain deadline then expires on it.
    std::vector<ExperimentPoint> points = tinySweep();
    points.resize(2);
    points[0].cfg.insts_per_core *= 100;
    points[0].cfg.warmup_insts *= 100;
    RunnerOptions serial;
    serial.jobs = 1;
    const std::vector<PointResult> clean = Runner(serial).run(points);

    const std::string store_dir = scratch.path("drain_store");
    SweepReport cut;
    {
        ResultStore store(store_dir);
        cut = sweepOn(
            GetParam(), 2, points, &store,
            [](const ExperimentPoint &, const PointResult &) {
                sweepstop::requestStop();
            },
            0.05);
    }
    EXPECT_TRUE(cut.stopped);
    EXPECT_TRUE(sweepstop::abortRequested())
        << "an expired drain deadline escalates to an abort";
    EXPECT_EQ(cut.sources[0], PointSource::kPending);
    EXPECT_EQ(cut.results[0].status, PointStatus::kNotRun);
    EXPECT_EQ(cut.sources[1], PointSource::kFresh);
    EXPECT_EQ(cut.exitCode(), sweepstop::kResumableExit);

    // The abandoned point never reached the store: a resume runs it,
    // serves the other, and matches the clean run.
    sweepstop::reset();
    ResultStore store(store_dir);
    const SweepReport resumed = sweepOn(GetParam(), 2, points, &store);
    EXPECT_FALSE(resumed.stopped);
    EXPECT_EQ(resumed.cache_hits, 1u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(test::canonicalBytes(resumed.results[i]),
                  test::canonicalBytes(clean[i]));
    }
}

} // namespace
