/**
 * @file
 * Reproduces Table 9: throughput loss of MoPAC-C under the
 * multi-bank performance attack (paper §7.3), using both the paper's
 * closed form (7 / (alpha * ATH+ + 7), alpha = 0.55 from the 32-bank
 * Monte Carlo) and a full attack simulation as a cross-check.
 */

#include "analysis/perf_attack.hh"
#include "analysis/security.hh"
#include "bench_util.hh"
#include "common/format.hh"

namespace mopac::bench
{
namespace
{

void
render(SlowdownLab &, std::ostream &os)
{
    // Monte Carlo alpha as in §7.2 (32 banks).
    const MopacCDerived d500 = deriveMopacC(500);
    const double alpha_mc =
        estimateAlpha(32, d500.c + 1, d500.p, 20000, 7);

    const double base_tput =
        attackThroughput(makeConfig(MitigationKind::kNone, 500));

    TextTable table("Table 9: Impact of performance attacks on "
                    "MoPAC-C");
    table.header({"T_RH", "ATH+", "ABO stall (ACTs)",
                  "slowdown (model)", "slowdown (simulated)",
                  "paper"});
    for (const PaperRef &ref :
         {PaperRef{250, "14.0%"}, PaperRef{500, "6.7%"},
          PaperRef{1000, "3.2%"}}) {
        const MopacCDerived d = deriveMopacC(ref.trh);
        const std::uint32_t ath_plus =
            (d.c + 1) * (1u << d.log2_inv_p);
        const double model =
            mitigationAttackSlowdown(ath_plus, 0.55);
        SystemConfig cfg = makeConfig(MitigationKind::kMopacC,
                                      ref.trh);
        const double tput = attackThroughput(cfg);
        const double simulated = 1.0 - tput / base_tput;
        table.row({std::to_string(ref.trh),
                   std::to_string(ath_plus), "7",
                   TextTable::pct(model, 1),
                   TextTable::pct(simulated, 1), ref.paper});
    }
    table.note(format("Monte-Carlo alpha over 32 banks: {:.2f} "
                      "(paper uses 0.55).",
                      alpha_mc));
    table.note("Simulated column: ACT-throughput loss of the 64-bank "
               "circular pattern vs the unprotected baseline; it "
               "also folds in MoPAC-C's own PREcu latency.");
    table.print(os);
}

} // namespace

extern const Exhibit tab09_attack_mopac_c{"tab09_attack_mopac_c",
                                          nullptr, render};

} // namespace mopac::bench
