/**
 * @file
 * Unit tests for sweep expansion and the runner's failure paths
 * (quarantine, timeout, faulted points, replay).  The heavyweight
 * jobs-1-vs-jobs-N determinism sweep lives in tests/regression.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "point_bytes.hh"
#include "sim/faults.hh"
#include "sim/runner.hh"
#include "sim/stop.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

namespace mopac
{
namespace
{

SystemConfig
tinyConfig(MitigationKind kind = MitigationKind::kNone)
{
    SystemConfig cfg = makeConfig(kind, 500);
    cfg.num_cores = 1;
    cfg.insts_per_core = 2000;
    cfg.warmup_insts = 200;
    return cfg;
}

SweepSpec
tinySweep()
{
    SweepSpec spec;
    spec.master_seed = 99;
    spec.configs = {{"base", tinyConfig()},
                    {"mopac-d", tinyConfig(MitigationKind::kMopacD)}};
    spec.workloads = {"mcf", "add"};
    return spec;
}

TEST(Sharding, ExpandIsWorkloadMajorWithDenseIds)
{
    const auto points = tinySweep().expand();
    ASSERT_EQ(points.size(), 4u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].point_id, i);
    }
    EXPECT_EQ(points[0].workload, "mcf");
    EXPECT_EQ(points[0].config_label, "base");
    EXPECT_EQ(points[1].workload, "mcf");
    EXPECT_EQ(points[1].config_label, "mopac-d");
    EXPECT_EQ(points[2].workload, "add");
    EXPECT_EQ(points[3].workload, "add");
}

TEST(Sharding, PerWorkloadPolicyPairsSeedsAcrossConfigs)
{
    const SweepSpec spec = tinySweep();
    const auto points = spec.expand();
    // Baseline and test on the same workload share a trace seed;
    // different workloads never do.
    EXPECT_EQ(points[0].cfg.seed, points[1].cfg.seed);
    EXPECT_EQ(points[2].cfg.seed, points[3].cfg.seed);
    EXPECT_NE(points[0].cfg.seed, points[2].cfg.seed);
    EXPECT_EQ(points[0].cfg.seed, Rng::streamSeed(spec.master_seed, 0));
    EXPECT_EQ(points[2].cfg.seed, Rng::streamSeed(spec.master_seed, 1));
}

TEST(Sharding, ConfigSignatureSeparatesMeaningfulFields)
{
    const SystemConfig a = tinyConfig();
    EXPECT_EQ(configSignature(a), configSignature(a));
    SystemConfig b = a;
    b.trh = 250;
    EXPECT_NE(configSignature(a), configSignature(b));
    b = a;
    b.seed += 1;
    EXPECT_NE(configSignature(a), configSignature(b));
    b = a;
    b.mitigation = MitigationKind::kMopacC;
    EXPECT_NE(configSignature(a), configSignature(b));
    b = a;
    b.geometry.chips = 16;
    EXPECT_NE(configSignature(a), configSignature(b));
}

TEST(Runner, QuarantinesFailingPointWithoutKillingSweep)
{
    SweepSpec spec = tinySweep();
    spec.workloads = {"mcf", "nosuchworkload"};
    const auto points = spec.expand();
    Runner runner(RunnerOptions{.jobs = 2});
    const auto results = runner.run(points);
    ASSERT_EQ(results.size(), 4u);
    // mcf points succeed...
    EXPECT_EQ(results[0].status, PointStatus::kOk);
    EXPECT_EQ(results[1].status, PointStatus::kOk);
    // ...the unknown-workload points fail in quarantine, carrying
    // their seed and a non-empty diagnostic for --replay.
    for (std::size_t i : {std::size_t{2}, std::size_t{3}}) {
        EXPECT_EQ(results[i].status, PointStatus::kFailed);
        EXPECT_FALSE(results[i].error.empty());
        EXPECT_EQ(results[i].seed, points[i].cfg.seed);
        EXPECT_EQ(results[i].point_id, points[i].point_id);
    }
}

TEST(Runner, CycleGuardClassifiesPointAsTimedOut)
{
    SweepSpec spec = tinySweep();
    spec.workloads = {"mcf"};
    spec.configs = {{"base", tinyConfig()}};
    auto points = spec.expand();
    points[0].cfg.max_cycles = 500; // Far too few to finish.
    const auto results = Runner(RunnerOptions{.jobs = 1}).run(points);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, PointStatus::kTimedOut);
    EXPECT_FALSE(results[0].error.empty());
}

TEST(Runner, ReplayReproducesTheSweepResult)
{
    SweepSpec spec = tinySweep();
    spec.workloads = {"mcf"};
    const auto points = spec.expand();
    const auto sweep = Runner(RunnerOptions{.jobs = 2}).run(points);
    const PointResult again = Runner::replay(points[1]);
    ASSERT_EQ(sweep[1].status, PointStatus::kOk);
    ASSERT_EQ(again.status, PointStatus::kOk);
    EXPECT_EQ(again.seed, sweep[1].seed);
    EXPECT_EQ(again.run.cycles, sweep[1].run.cycles);
    EXPECT_EQ(again.run.acts, sweep[1].run.acts);
    EXPECT_TRUE(again.stats == sweep[1].stats);
}

TEST(Runner, MergeStatsSumsOkPointsOnly)
{
    SweepSpec spec = tinySweep();
    spec.workloads = {"mcf", "nosuchworkload"};
    const auto points = spec.expand();
    const auto results = Runner(RunnerOptions{.jobs = 1}).run(points);
    const StatSnapshot merged = Runner::mergeStats(results);
    ASSERT_TRUE(merged.has("subch0.dram.acts"));
    std::uint64_t sum = 0;
    for (const auto &r : results) {
        if (r.status == PointStatus::kOk) {
            sum += r.stats.scalar("subch0.dram.acts");
        }
    }
    EXPECT_EQ(merged.scalar("subch0.dram.acts"), sum);
}

TEST(Runner, ZeroJobsResolvesToHardwareConcurrency)
{
    EXPECT_GE(Runner(RunnerOptions{.jobs = 0}).jobs(), 1u);
    EXPECT_EQ(Runner(RunnerOptions{.jobs = 5}).jobs(), 5u);
}

TEST(Runner, ProgressCallbackFiresOncePerPoint)
{
    SweepSpec spec = tinySweep();
    spec.workloads = {"mcf"};
    const auto points = spec.expand();
    std::atomic<unsigned> calls{0};
    Runner(RunnerOptions{.jobs = 2})
        .run(points, [&](const ExperimentPoint &,
                         const PointResult &) { ++calls; });
    EXPECT_EQ(calls.load(), points.size());
}

/** What a replayed point is set up to hit. */
enum class PathCase
{
    kOk,
    kUnknownWorkload,
    kCycleGuard,
    kFaultWatchdog,
    kFaultCycleGuard,
};

const char *
pathCaseName(PathCase c)
{
    switch (c) {
      case PathCase::kOk: return "ok";
      case PathCase::kUnknownWorkload: return "unknown_workload";
      case PathCase::kCycleGuard: return "cycle_guard";
      case PathCase::kFaultWatchdog: return "fault_watchdog";
      case PathCase::kFaultCycleGuard: return "fault_cycle_guard";
    }
    return "?";
}

/**
 * Runner::replay -- the one point path every sweep worker and
 * `--replay` take -- must classify each case, set up on the point's
 * config alone, with the expected status, and replaying it again must
 * reproduce every field of the result bit-for-bit.
 */
class RunnerPointPath : public ::testing::TestWithParam<PathCase>
{
  protected:
    void SetUp() override { sweepstop::reset(); }
};

TEST_P(RunnerPointPath, ReplayClassifiesThePoint)
{
    const PathCase which = GetParam();

    ExperimentPoint point;
    point.point_id = 7;
    point.config_label = pathCaseName(which);
    point.workload = "mcf";
    point.cfg = tinyConfig(MitigationKind::kMopacD);
    point.cfg.seed = 41;
    // ~19K cycles, so the 12K cycle guard below cuts it short.
    point.cfg.insts_per_core = 20000;
    point.cfg.warmup_insts = 2000;
    point.cfg.geometry.rows_per_bank = 1024;
    PointStatus expected = PointStatus::kOk;
    switch (which) {
      case PathCase::kOk:
        break;
      case PathCase::kUnknownWorkload:
        point.workload = "nosuchworkload";
        expected = PointStatus::kFailed;
        break;
      case PathCase::kCycleGuard:
        point.cfg.max_cycles = 12000;
        expected = PointStatus::kTimedOut;
        break;
      case PathCase::kFaultWatchdog:
        // The stuck-bank plan of FaultRuns.StuckForeverIsQuarantined-
        // Hung: the run trips the watchdog (a crash classified HUNG).
        point.cfg.faults = FaultPlan::single(FaultKind::kStuckOpenBank,
                                             1.0, kNeverCycle);
        point.cfg.watchdog_cycles = 20000;
        expected = PointStatus::kFaulted;
        break;
      case PathCase::kFaultCycleGuard:
        // Same plan with the watchdog off: the run completes at the
        // cycle guard instead, classified HUNG.
        point.cfg.faults = FaultPlan::single(FaultKind::kStuckOpenBank,
                                             1.0, kNeverCycle);
        point.cfg.watchdog_cycles = 0;
        point.cfg.max_cycles = 30000;
        expected = PointStatus::kFaulted;
        break;
    }

    const PointResult plain = Runner::replay(point);
    ASSERT_EQ(plain.status, expected) << plain.error;
    if (expected == PointStatus::kFaulted) {
        EXPECT_EQ(plain.outcome, OutcomeClass::kHung);
    }

    // Every field of the run (doubles bit-for-bit) and the stats.
    const PointResult again = Runner::replay(point);
    EXPECT_EQ(test::canonicalBytes(again), test::canonicalBytes(plain));
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, RunnerPointPath,
    ::testing::Values(PathCase::kOk, PathCase::kUnknownWorkload,
                      PathCase::kCycleGuard, PathCase::kFaultWatchdog,
                      PathCase::kFaultCycleGuard),
    [](const ::testing::TestParamInfo<PathCase> &path_case) {
        return std::string(pathCaseName(path_case.param));
    });

} // namespace
} // namespace mopac
