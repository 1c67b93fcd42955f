/**
 * @file
 * Fault-injection unit tests: plan parsing, exact one-shot schedules,
 * stat accounting, determinism across thread counts, and the runner's
 * quarantine behaviour.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/config.hh"
#include "merge_stats.hh"
#include "sim/faults.hh"
#include "sim/runner.hh"

namespace mopac
{
namespace
{

/** Query the hook matching @p kind once at @p now. */
bool
poke(FaultInjector &inj, FaultKind kind, Cycle now)
{
    switch (kind) {
      case FaultKind::kAlertDrop:
        return inj.dropAlert(now);
      case FaultKind::kAlertDelay:
        return inj.alertAssertDelay(now) > 0;
      case FaultKind::kRfmStarve:
        return inj.rfmStarveDelay(now) > 0;
      case FaultKind::kAboTruncate:
        return inj.truncateAboService(now);
      case FaultKind::kCounterBitflip:
      case FaultKind::kCounterSaturate:
      case FaultKind::kCounterReset: {
        std::uint32_t v = 100;
        return inj.corruptCounter(0, v, now);
      }
      case FaultKind::kMitigationSuppress:
        return inj.suppressVictimRefresh(0, now);
      case FaultKind::kStuckOpenBank:
        return inj.stickBankOpen(0, now);
    }
    return false;
}

TEST(FaultPlan, KindNamesRoundTrip)
{
    for (unsigned k = 0; k < kNumFaultKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        FaultKind parsed;
        ASSERT_TRUE(parseFaultKind(toString(kind), parsed))
            << toString(kind);
        EXPECT_EQ(parsed, kind);
    }
    FaultKind parsed;
    EXPECT_FALSE(parseFaultKind("not_a_fault", parsed));
}

TEST(FaultPlan, DefaultAndZeroIntensityDisabled)
{
    FaultPlan plan;
    EXPECT_FALSE(plan.enabled());

    plan = FaultPlan::single(FaultKind::kAlertDrop, 0.5);
    EXPECT_TRUE(plan.enabled());
    plan.intensity = 0.0;
    EXPECT_FALSE(plan.enabled());

    // A zero-rate plan with a scheduled one-shot is still enabled.
    FaultPlan scheduled;
    scheduled.spec(FaultKind::kCounterReset).at = 1000;
    EXPECT_TRUE(scheduled.enabled());
}

TEST(FaultInjector, OneShotFiresExactlyAtScheduledCycle)
{
    for (unsigned k = 0; k < kNumFaultKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        FaultPlan plan;
        plan.spec(kind).at = 1000;
        FaultInjector inj(plan, /*run_seed=*/1, /*subchannel=*/0);

        EXPECT_FALSE(poke(inj, kind, 0)) << toString(kind);
        EXPECT_FALSE(poke(inj, kind, 999)) << toString(kind);
        EXPECT_TRUE(poke(inj, kind, 1000)) << toString(kind);
        EXPECT_EQ(inj.stats().fired[k], 1u) << toString(kind);
        EXPECT_EQ(inj.stats().total(), 1u) << toString(kind);
    }
}

TEST(FaultInjector, OneShotConsumedAfterFirstOpportunity)
{
    FaultPlan plan;
    plan.spec(FaultKind::kAlertDrop).at = 500;
    FaultInjector inj(plan, 1, 0);
    // The first opportunity at-or-after the cycle fires, later ones
    // do not (and a pure one-shot never fires again).
    EXPECT_TRUE(inj.dropAlert(700));
    EXPECT_FALSE(inj.dropAlert(701));
    EXPECT_FALSE(inj.dropAlert(100000));
    EXPECT_EQ(inj.stats().total(), 1u);
}

TEST(FaultInjector, IntensityScalesRates)
{
    FaultPlan plan = FaultPlan::single(FaultKind::kAboTruncate, 0.4);
    plan.intensity = 0.5;
    FaultInjector inj(plan, 1, 0);
    EXPECT_DOUBLE_EQ(inj.plan().spec(FaultKind::kAboTruncate).rate,
                     0.2);

    plan.intensity = 10.0; // Clamped to a certainty.
    FaultInjector loud(plan, 1, 0);
    EXPECT_DOUBLE_EQ(loud.plan().spec(FaultKind::kAboTruncate).rate,
                     1.0);
    EXPECT_TRUE(loud.truncateAboService(0));
}

TEST(FaultInjector, RateOneFiresEveryOpportunity)
{
    FaultPlan plan = FaultPlan::single(FaultKind::kAlertDrop, 1.0);
    FaultInjector inj(plan, 1, 0);
    for (Cycle c = 0; c < 100; ++c) {
        EXPECT_TRUE(inj.dropAlert(c));
    }
    EXPECT_EQ(inj.stats().total(), 100u);
}

TEST(FaultInjector, CounterCorruptionRespectsChipFilter)
{
    FaultPlan plan =
        FaultPlan::single(FaultKind::kCounterReset, 1.0, 0, /*chip=*/2);
    FaultInjector inj(plan, 1, 0);
    std::uint32_t v = 77;
    EXPECT_FALSE(inj.corruptCounter(/*chip=*/0, v, 0));
    EXPECT_EQ(v, 77u);
    EXPECT_TRUE(inj.corruptCounter(/*chip=*/2, v, 0));
    EXPECT_EQ(v, 0u);
}

TEST(FaultInjector, BitflipChangesExactlyOneBit)
{
    FaultPlan plan =
        FaultPlan::single(FaultKind::kCounterBitflip, 1.0);
    FaultInjector inj(plan, 1, 0);
    const std::uint32_t before = 0x155555;
    std::uint32_t after = before;
    ASSERT_TRUE(inj.corruptCounter(0, after, 0));
    EXPECT_EQ(__builtin_popcount(before ^ after), 1);
    EXPECT_LT(before ^ after, 1u << 22); // Flip within the field.
}

TEST(FaultInjector, StuckBankWindowCountsOnce)
{
    FaultPlan plan;
    plan.spec(FaultKind::kStuckOpenBank).at = 100;
    plan.spec(FaultKind::kStuckOpenBank).duration = 50;
    FaultInjector inj(plan, 1, 0);
    EXPECT_FALSE(inj.stickBankOpen(3, 99));
    EXPECT_TRUE(inj.stickBankOpen(3, 100)); // Window opens...
    EXPECT_TRUE(inj.stickBankOpen(3, 120)); // ...stays stuck...
    EXPECT_FALSE(inj.stickBankOpen(3, 150)); // ...and expires.
    const unsigned idx =
        static_cast<unsigned>(FaultKind::kStuckOpenBank);
    EXPECT_EQ(inj.stats().fired[idx], 1u); // One fault, not three.
}

TEST(FaultInjector, SameStreamSameSchedule)
{
    const FaultPlan plan =
        FaultPlan::single(FaultKind::kAlertDrop, 0.3);
    FaultInjector a(plan, 42, 0);
    FaultInjector b(plan, 42, 0);
    FaultInjector other(plan, 42, 1);
    std::vector<bool> da, db, dother;
    for (Cycle c = 0; c < 512; ++c) {
        da.push_back(a.dropAlert(c));
        db.push_back(b.dropAlert(c));
        dother.push_back(other.dropAlert(c));
    }
    EXPECT_EQ(da, db);
    EXPECT_NE(da, dother); // Sub-channels draw independent streams.
}

TEST(FaultPlan, FromConfigParsesTheKeyFamily)
{
    Config conf;
    conf.parseArgs({"faults.seed=99", "faults.intensity=0.5",
                    "faults.alert_drop=0.25",
                    "faults.counter_bitflip.at=12345",
                    "faults.stuck_bank.cycles=777",
                    "faults.mitigation_suppress.chip=2"});
    const FaultPlan plan = FaultPlan::fromConfig(conf);
    EXPECT_EQ(plan.seed, 99u);
    EXPECT_DOUBLE_EQ(plan.intensity, 0.5);
    EXPECT_DOUBLE_EQ(plan.spec(FaultKind::kAlertDrop).rate, 0.25);
    EXPECT_EQ(plan.spec(FaultKind::kCounterBitflip).at, 12345u);
    EXPECT_EQ(plan.spec(FaultKind::kStuckOpenBank).duration, 777u);
    EXPECT_EQ(plan.spec(FaultKind::kMitigationSuppress).chip, 2u);
    EXPECT_TRUE(plan.enabled());
    // fromConfig consumed every faults.* key.
    conf.rejectUnknownKeys("test");
}

TEST(FaultPlanDeathTest, FromConfigRejectsBadKeys)
{
    {
        Config conf;
        conf.parseArgs({"faults.alert_dorp=0.5"});
        EXPECT_EXIT((void)FaultPlan::fromConfig(conf),
                    ::testing::ExitedWithCode(1), "unknown fault kind");
    }
    {
        Config conf;
        conf.parseArgs({"faults.alert_drop.often=1"});
        EXPECT_EXIT((void)FaultPlan::fromConfig(conf),
                    ::testing::ExitedWithCode(1),
                    "unknown fault attribute");
    }
    {
        Config conf;
        conf.parseArgs({"faults.alert_drop=1.5"});
        EXPECT_EXIT((void)FaultPlan::fromConfig(conf),
                    ::testing::ExitedWithCode(1), "outside");
    }
}

TEST(FaultPlan, SignatureDistinguishesPlans)
{
    const FaultPlan none;
    FaultPlan drop = FaultPlan::single(FaultKind::kAlertDrop, 0.5);
    EXPECT_NE(none.signature(), drop.signature());
    FaultPlan quiet = drop;
    quiet.intensity = 0.0;
    EXPECT_NE(drop.signature(), quiet.signature());
    EXPECT_EQ(drop.signature(),
              FaultPlan::single(FaultKind::kAlertDrop, 0.5).signature());
    EXPECT_EQ(none.summary(), "none");
    EXPECT_NE(drop.summary().find("alert_drop"), std::string::npos);
}

/** A small real experiment point (few thousand instructions). */
ExperimentPoint
smallPoint(std::uint64_t id, const FaultPlan &plan)
{
    ExperimentPoint p;
    p.point_id = id;
    p.config_label = "chaos";
    p.workload = "mcf";
    p.cfg = makeConfig(MitigationKind::kMopacD, 500);
    p.cfg.seed = 11 + id;
    p.cfg.insts_per_core = 4000;
    p.cfg.warmup_insts = 400;
    p.cfg.num_cores = 2;
    p.cfg.faults = plan;
    return p;
}

TEST(FaultRuns, ZeroIntensityMatchesNoFaultRun)
{
    const ExperimentPoint clean = smallPoint(0, FaultPlan{});
    FaultPlan quiet = FaultPlan::single(FaultKind::kAlertDrop, 0.5);
    quiet.intensity = 0.0;
    ExperimentPoint ramped = smallPoint(0, quiet);

    const RunOutcome a =
        tryRunWorkload(clean.cfg, clean.workload, true);
    const RunOutcome b =
        tryRunWorkload(ramped.cfg, ramped.workload, true);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(b.result.faults_injected, 0u);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.acts, b.result.acts);
    EXPECT_EQ(a.result.reads, b.result.reads);
    EXPECT_EQ(a.result.alerts, b.result.alerts);
    EXPECT_EQ(a.result.mitigations, b.result.mitigations);
    EXPECT_EQ(a.outcome, OutcomeClass::kOk);
    EXPECT_EQ(b.outcome, OutcomeClass::kOk);
}

TEST(FaultRuns, ScheduleIdenticalAcrossJobCounts)
{
    std::vector<ExperimentPoint> points;
    for (std::uint64_t id = 0; id < 8; ++id) {
        points.push_back(smallPoint(
            id, FaultPlan::single(FaultKind::kAlertDrop, 0.3)));
    }
    RunnerOptions serial;
    serial.jobs = 1;
    RunnerOptions wide;
    wide.jobs = 8;
    const auto a = Runner(serial).run(points);
    const auto b = Runner(wide).run(points);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].status, b[i].status) << i;
        EXPECT_EQ(a[i].run.cycles, b[i].run.cycles) << i;
        EXPECT_EQ(a[i].run.faults_injected, b[i].run.faults_injected)
            << i;
        EXPECT_EQ(a[i].run.acts, b[i].run.acts) << i;
        EXPECT_EQ(a[i].run.max_unmitigated, b[i].run.max_unmitigated)
            << i;
    }
}

TEST(FaultRuns, StuckForeverIsQuarantinedHung)
{
    FaultPlan stuck =
        FaultPlan::single(FaultKind::kStuckOpenBank, 1.0, kNeverCycle);
    ExperimentPoint point = smallPoint(0, stuck);
    point.cfg.watchdog_cycles = 100000;

    RunnerOptions opts;
    opts.jobs = 1;
    const auto results = Runner(opts).run({point});
    ASSERT_EQ(results.size(), 1u);
    const PointResult &r = results[0];
    // The run locks up, so its one attempt is quarantined as HUNG
    // rather than failing the sweep.
    EXPECT_EQ(r.status, PointStatus::kFaulted);
    EXPECT_EQ(r.outcome, OutcomeClass::kHung);
    EXPECT_NE(r.error.find(kWatchdogMarker), std::string::npos);
    // Quarantined points contribute nothing to the merged stats.
    EXPECT_EQ(test::mergeStats(results).size(), 0u);
}

TEST(FaultRuns, DegradedFaultyRunStaysOk)
{
    // Faults that the stack absorbs classify DEGRADED but the point
    // still completes OK (its stats are real and mergeable).
    ExperimentPoint point = smallPoint(
        0, FaultPlan::single(FaultKind::kAlertDrop, 0.5));
    RunnerOptions opts;
    opts.jobs = 1;
    const auto results = Runner(opts).run({point});
    ASSERT_EQ(results.size(), 1u);
    const PointResult &r = results[0];
    ASSERT_EQ(r.status, PointStatus::kOk) << r.error;
    if (r.run.faults_injected > 0) {
        EXPECT_EQ(r.outcome, OutcomeClass::kDegraded);
    }
}

} // namespace
} // namespace mopac
