/**
 * @file
 * Ablation: the tardiness threshold (TTH) trade-off the paper fixes
 * at 32 (§6.3).  Larger TTH admits more unmitigated activations on a
 * queued row (its slack is subtracted from ATH via A' = ATH - TTH,
 * shrinking ATH*); smaller TTH turns the tardiness attack into a
 * cheap DoS (ABO every TTH activations => 7/(TTH+7) loss).
 */

#include "analysis/perf_attack.hh"
#include "analysis/security.hh"
#include "bench_util.hh"
#include "sim/attack.hh"

namespace mopac::bench
{
namespace
{

void
render(SlowdownLab &, std::ostream &os)
{
    TextTable table("Ablation: tardiness threshold (TTH) sweep at "
                    "T_RH 500");
    table.header({"TTH", "A'", "C", "ATH*", "TTH-attack slowdown",
                  "max unmitigated (sim)"});

    for (std::uint32_t tth : {8u, 16u, 32u, 64u, 128u}) {
        const MopacDDerived d = deriveMopacD(500, tth);

        SystemConfig cfg = makeConfig(MitigationKind::kMopacD, 500);
        cfg.tth = tth;
        AttackRunner runner(cfg);
        AttackPattern p = makeDoubleSidedAttack(
            runner.system().addressMap(), 0, 0, 1000);
        const AttackResult res =
            runner.run(p, nsToCycles(1.0e6), 8);

        table.row({std::to_string(tth), std::to_string(d.a_prime),
                   std::to_string(d.c), std::to_string(d.ath_star),
                   TextTable::pct(tthAttackSlowdown(tth), 1),
                   std::to_string(res.max_unmitigated)});
    }
    table.note("The paper's TTH = 32 sits at the knee: the "
               "tardiness-attack cost is already ~18% (Table 10) "
               "while ATH* loses only 32 of ATH's activation "
               "budget.");
    table.print(os);
}

} // namespace

extern const Exhibit abl_tth_sweep{"abl_tth_sweep", nullptr, render};

} // namespace mopac::bench
