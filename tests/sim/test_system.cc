/**
 * @file
 * System-level tests: construction, paired runs, slowdown math, and
 * basic end-to-end workload execution for every mitigation kind.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload_slowdown.hh"

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
    return cfg;
}

TEST(System, RunsBaselineWorkloadToCompletion)
{
    const RunResult r = runWorkload(quickConfig(MitigationKind::kNone),
                                    "mcf");
    EXPECT_FALSE(r.timed_out);
    EXPECT_EQ(r.ipcs.size(), 4u);
    for (double ipc : r.ipcs) {
        EXPECT_GT(ipc, 0.05);
        EXPECT_LE(ipc, 4.0);
    }
    EXPECT_GT(r.acts, 0u);
    EXPECT_GT(r.reads, 0u);
    EXPECT_GT(r.refs, 0u);
    EXPECT_EQ(r.violations, 0u);
}

TEST(System, AllMitigationKindsRun)
{
    for (MitigationKind kind :
         {MitigationKind::kNone, MitigationKind::kPracMoat,
          MitigationKind::kMopacC, MitigationKind::kMopacD,
          MitigationKind::kMint, MitigationKind::kPride,
          MitigationKind::kTrr}) {
        const RunResult r = runWorkload(quickConfig(kind), "roms");
        EXPECT_FALSE(r.timed_out) << toString(kind);
        EXPECT_GT(r.meanIpc(), 0.0) << toString(kind);
    }
}

TEST(System, SameSeedReplaysIdenticalBaseline)
{
    const RunResult a =
        runWorkload(quickConfig(MitigationKind::kNone), "mcf");
    const RunResult b =
        runWorkload(quickConfig(MitigationKind::kNone), "mcf");
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.acts, b.acts);
    EXPECT_EQ(a.ipcs, b.ipcs);
}

TEST(System, PracUpdatesEveryPrecharge)
{
    const RunResult r =
        runWorkload(quickConfig(MitigationKind::kPracMoat), "mcf");
    // Every precharge performs a counter update: updates == ACTs
    // (every ACT is eventually closed; a handful may still be open at
    // the end of simulation).
    EXPECT_GE(r.counter_updates + 64, r.acts);
    EXPECT_LE(r.counter_updates, r.acts);
}

TEST(System, MopacCUpdatesAboutPFraction)
{
    SystemConfig cfg = quickConfig(MitigationKind::kMopacC, 500);
    cfg.insts_per_core = 60000;
    const RunResult r = runWorkload(cfg, "mcf");
    // p = 1/8 at T_RH 500.
    const double frac = static_cast<double>(r.counter_updates) /
                        static_cast<double>(r.acts);
    EXPECT_NEAR(frac, 0.125, 0.02);
}

TEST(System, MopacDInsertsAboutPFractionPerChip)
{
    SystemConfig cfg = quickConfig(MitigationKind::kMopacD, 500);
    cfg.insts_per_core = 60000;
    const RunResult r = runWorkload(cfg, "mcf");
    const double per_chip =
        static_cast<double>(r.srq_insertions) / cfg.geometry.chips;
    const double frac = per_chip / static_cast<double>(r.acts);
    // Insertions + coalesced selections ~ p; insertions alone are at
    // most that (most selections are unique rows for mcf).
    EXPECT_GT(frac, 0.08);
    EXPECT_LE(frac, 0.135);
}

TEST(System, PracIsSlowerThanBaseline)
{
    SystemConfig base = quickConfig(MitigationKind::kNone);
    SystemConfig prac = quickConfig(MitigationKind::kPracMoat);
    base.insts_per_core = prac.insts_per_core = 40000;
    const double slowdown = test::workloadSlowdown(base, prac, "mcf");
    EXPECT_GT(slowdown, 0.05);
    EXPECT_LT(slowdown, 0.40);
}

TEST(System, MopacCRecoversMostOfPracSlowdown)
{
    SystemConfig base = quickConfig(MitigationKind::kNone);
    SystemConfig prac = quickConfig(MitigationKind::kPracMoat);
    SystemConfig mopac = quickConfig(MitigationKind::kMopacC);
    base.insts_per_core = prac.insts_per_core =
        mopac.insts_per_core = 40000;
    const double prac_s = test::workloadSlowdown(base, prac, "mcf");
    const double mopac_s = test::workloadSlowdown(base, mopac, "mcf");
    EXPECT_LT(mopac_s, prac_s / 2.0);
}

TEST(System, WeightedSlowdownMath)
{
    RunResult base;
    base.ipcs = {1.0, 2.0};
    RunResult test;
    test.ipcs = {0.9, 1.0};
    // mean(0.9, 0.5) = 0.7 -> 30% slowdown.
    EXPECT_NEAR(weightedSlowdown(base, test), 0.30, 1e-12);
    EXPECT_NEAR(weightedSlowdown(base, base), 0.0, 1e-12);
}

TEST(System, MitigationKindNames)
{
    EXPECT_EQ(toString(MitigationKind::kNone), "none");
    EXPECT_EQ(toString(MitigationKind::kPracMoat), "prac");
    EXPECT_EQ(toString(MitigationKind::kMopacC), "mopac-c");
    EXPECT_EQ(toString(MitigationKind::kMopacD), "mopac-d");
}

TEST(System, DefaultInstsRespectsEnv)
{
    ::unsetenv("MOPAC_SIM_INSTS");
    ::unsetenv("MOPAC_SIM_SCALE");
    EXPECT_EQ(defaultInstsPerCore(1000), 1000u);
    ::setenv("MOPAC_SIM_SCALE", "0.5", 1);
    EXPECT_EQ(defaultInstsPerCore(1000), 500u);
    ::setenv("MOPAC_SIM_INSTS", "777", 1);
    EXPECT_EQ(defaultInstsPerCore(1000), 777u);
    ::unsetenv("MOPAC_SIM_INSTS");
    ::unsetenv("MOPAC_SIM_SCALE");
}

TEST(System, EpochStatsPlumbing)
{
    SystemConfig cfg = quickConfig(MitigationKind::kNone);
    cfg.track_epoch_stats = true;
    cfg.epoch_cycles = nsToCycles(50000.0);
    cfg.epoch_hi1 = 1;
    cfg.epoch_hi2 = 2;
    const RunResult r = runWorkload(cfg, "parest");
    EXPECT_GE(r.epochs, 1u);
    EXPECT_GT(r.act64, 0.0);
}

} // namespace
} // namespace mopac
