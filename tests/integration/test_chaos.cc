/**
 * @file
 * Chaos integration tests: the fault injector must degrade the stack
 * in ways the ground-truth security oracle *sees* -- suppressing every
 * mitigation under a hammering attack must classify VIOLATED for
 * every counter-based engine (the injector cannot fool the checker) --
 * and a locked-up configuration must be classified HUNG by the
 * forward-progress watchdog instead of hanging the harness.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/attack.hh"
#include "sim/faults.hh"
#include "sim/runner.hh"

namespace mopac
{
namespace
{

AttackResult
hammerUnder(MitigationKind kind, const FaultPlan &plan,
            double duration_ns = 1.0e6)
{
    SystemConfig cfg = makeConfig(kind, 500);
    cfg.seed = 5;
    cfg.faults = plan;
    AttackRunner runner(cfg);
    AttackPattern p =
        makeDoubleSidedAttack(runner.system().addressMap(), 0, 0, 1000);
    return runner.run(p, nsToCycles(duration_ns), 8);
}

class SuppressedEngines
    : public ::testing::TestWithParam<MitigationKind>
{
};

TEST_P(SuppressedEngines, TotalSuppressionIsAlwaysViolated)
{
    const MitigationKind kind = GetParam();
    const FaultPlan suppress =
        FaultPlan::single(FaultKind::kMitigationSuppress, 1.0);
    const AttackResult res = hammerUnder(kind, suppress);

    // The engines believe they mitigated; the oracle knows better.
    EXPECT_GT(res.faults_injected, 0u) << toString(kind);
    EXPECT_GT(res.violations, 0u) << toString(kind);
    EXPECT_GT(res.max_unmitigated, 500u) << toString(kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllCounterEngines, SuppressedEngines,
    ::testing::Values(MitigationKind::kPracMoat,
                      MitigationKind::kQprac, MitigationKind::kMopacC,
                      MitigationKind::kMopacD),
    [](const ::testing::TestParamInfo<MitigationKind> &param_info) {
        std::string name = toString(param_info.param);
        for (char &c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

TEST(ChaosOracle, CleanControlRunStaysSecure)
{
    // The same attack with no plan: every engine above holds, so the
    // VIOLATED classification really is the fault's doing.
    const AttackResult res =
        hammerUnder(MitigationKind::kMopacD, FaultPlan{});
    EXPECT_EQ(res.faults_injected, 0u);
    EXPECT_EQ(res.violations, 0u);
}

TEST(ChaosOracle, WeakChipBreaksMopacD)
{
    // MoPAC-D mitigates per chip; one chip whose sampler never
    // refreshes victims ("weak chip") is enough to lose the
    // guarantee, even though the other chips stay protected.
    const FaultPlan weak = FaultPlan::single(
        FaultKind::kMitigationSuppress, 1.0, 0, /*chip=*/1);
    const AttackResult res =
        hammerUnder(MitigationKind::kMopacD, weak, 1.5e6);
    EXPECT_GT(res.faults_injected, 0u);
    EXPECT_GT(res.violations, 0u);
}

TEST(ChaosWatchdog, StuckBanksClassifyHungWithCommandTail)
{
    SystemConfig cfg = makeConfig(MitigationKind::kMopacD, 500);
    cfg.seed = 9;
    cfg.num_cores = 2;
    cfg.insts_per_core = 50000;
    cfg.warmup_insts = 1000;
    cfg.watchdog_cycles = 100000;
    cfg.faults =
        FaultPlan::single(FaultKind::kStuckOpenBank, 1.0, kNeverCycle);

    const RunOutcome outcome = tryRunWorkload(cfg, "mcf");
    ASSERT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.outcome, OutcomeClass::kHung);
    // The diagnostic names the watchdog and lists the last commands.
    EXPECT_NE(outcome.error.find(kWatchdogMarker), std::string::npos)
        << outcome.error;
    EXPECT_NE(outcome.error.find("subch"), std::string::npos)
        << outcome.error;
}

TEST(ChaosWatchdog, DisabledWatchdogFallsBackToCycleGuard)
{
    SystemConfig cfg = makeConfig(MitigationKind::kMopacD, 500);
    cfg.seed = 9;
    cfg.num_cores = 1;
    cfg.insts_per_core = 50000;
    cfg.warmup_insts = 1000;
    cfg.watchdog_cycles = 0; // Explicitly off.
    cfg.max_cycles = 300000; // The guard that stops the run instead.
    cfg.faults =
        FaultPlan::single(FaultKind::kStuckOpenBank, 1.0, kNeverCycle);

    const RunOutcome outcome = tryRunWorkload(cfg, "mcf");
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_TRUE(outcome.result.timed_out);
    EXPECT_EQ(outcome.outcome, OutcomeClass::kHung);
}

} // namespace
} // namespace mopac
