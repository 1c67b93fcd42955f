/**
 * @file
 * Performance-shape integration tests: the orderings the paper's
 * evaluation rests on, at reduced scale.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "sim/experiment.hh"
#include "workload_slowdown.hh"

namespace mopac
{
namespace
{

SystemConfig
perfConfig(MitigationKind kind, std::uint32_t trh = 500)
{
    SystemConfig cfg = makeConfig(kind, trh);
    cfg.insts_per_core = 60000;
    cfg.warmup_insts = 6000;
    return cfg;
}

double
slowdownOf(MitigationKind kind, const std::string &workload,
           std::uint32_t trh = 500,
           const std::function<void(SystemConfig &)> &tweak = {})
{
    SystemConfig base = perfConfig(MitigationKind::kNone, trh);
    SystemConfig test = perfConfig(kind, trh);
    if (tweak) {
        tweak(test);
    }
    return test::workloadSlowdown(base, test, workload);
}

TEST(PerfShape, PracCostsAboutTenPercent)
{
    // The paper's headline: ~10% average slowdown for PRAC.  On a
    // single representative latency-bound workload expect 10-25%.
    const double s = slowdownOf(MitigationKind::kPracMoat, "mcf");
    EXPECT_GT(s, 0.08);
    EXPECT_LT(s, 0.30);
}

TEST(PerfShape, PracSlowdownInsensitiveToTrh)
{
    // Figure 2: identical overheads at T_RH 4000 / 500 / 100 because
    // the latency tax, not ABO, dominates.
    const double s4000 =
        slowdownOf(MitigationKind::kPracMoat, "mcf", 4000);
    const double s500 =
        slowdownOf(MitigationKind::kPracMoat, "mcf", 500);
    EXPECT_NEAR(s4000, s500, 0.03);
}

TEST(PerfShape, MopacOrderingAtDefaultThreshold)
{
    // Fig 9 / Fig 11 at T_RH 500: PRAC >> MoPAC-C > MoPAC-D ~ 0.
    const double prac = slowdownOf(MitigationKind::kPracMoat, "mcf");
    const double mopac_c = slowdownOf(MitigationKind::kMopacC, "mcf");
    const double mopac_d = slowdownOf(MitigationKind::kMopacD, "mcf");
    EXPECT_LT(mopac_c, prac * 0.5);
    EXPECT_LT(mopac_d, 0.04);
    EXPECT_LT(mopac_d, prac);
}

TEST(PerfShape, MopacCScalesWithP)
{
    // Larger T_RH -> smaller p -> fewer PREcu -> smaller slowdown.
    const double s250 =
        slowdownOf(MitigationKind::kMopacC, "mcf", 250);
    const double s1000 =
        slowdownOf(MitigationKind::kMopacC, "mcf", 1000);
    EXPECT_LT(s1000, s250);
}

TEST(PerfShape, StreamsAreInsensitiveToPrac)
{
    // Figure 2: bandwidth-bound STREAM kernels lose ~1%.
    const double s = slowdownOf(MitigationKind::kPracMoat, "add");
    EXPECT_LT(s, 0.06);
}

TEST(PerfShape, MopacDDrainOnRefMatters)
{
    // Figure 12's direction: drain 0 costs more than the default.
    const double no_drain = slowdownOf(
        MitigationKind::kMopacD, "bwaves", 250,
        [](SystemConfig &cfg) { cfg.drain_per_ref = 0; });
    const double default_drain =
        slowdownOf(MitigationKind::kMopacD, "bwaves", 250);
    EXPECT_LE(default_drain, no_drain + 0.01);
    EXPECT_GT(no_drain, 0.01);
}

TEST(PerfShape, MopacDSrqSizeMatters)
{
    // Figure 13's direction at T_RH 250 with ABO-only draining:
    // a smaller SRQ fills faster and triggers more ALERTs.
    auto run = [&](unsigned srq) {
        SystemConfig cfg = perfConfig(MitigationKind::kMopacD, 250);
        cfg.srq_capacity = srq;
        cfg.drain_per_ref = 0;
        return runWorkload(cfg, "bwaves").alerts;
    };
    EXPECT_GT(run(8), run(32));
}

TEST(PerfShape, NupReducesInsertions)
{
    // Table 12: NUP halves SRQ insertions.
    SystemConfig uni = perfConfig(MitigationKind::kMopacD, 500);
    SystemConfig nup = uni;
    nup.nup = true;
    const RunResult u = runWorkload(uni, "mcf");
    const RunResult n = runWorkload(nup, "mcf");
    const double ratio = static_cast<double>(n.srq_insertions) /
                         static_cast<double>(u.srq_insertions);
    EXPECT_GT(ratio, 0.40);
    EXPECT_LT(ratio, 0.68);
}

TEST(PerfShape, ClosePagePolicyShrinksPracPenalty)
{
    // Appendix C: proactive closure hides part of the precharge tax
    // (10% -> 7.1% in the paper).
    auto with_policy = [&](PagePolicy policy) {
        SystemConfig base = perfConfig(MitigationKind::kNone);
        SystemConfig prac = perfConfig(MitigationKind::kPracMoat);
        base.mc.page_policy = policy;
        prac.mc.page_policy = policy;
        return test::workloadSlowdown(base, prac, "mcf");
    };
    const double open_page = with_policy(PagePolicy::kOpen);
    const double close_page = with_policy(PagePolicy::kClose);
    EXPECT_LT(close_page, open_page);
}

} // namespace
} // namespace mopac
