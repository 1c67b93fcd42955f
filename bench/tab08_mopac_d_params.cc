/**
 * @file
 * Reproduces Table 8: MoPAC-D's p, C, ATH*, A' and drain-on-REF rate
 * for T_RH of 250 / 500 / 1000 (paper §6.5).
 */

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
    TextTable table(
        "Table 8: MoPAC-D p, C, ATH* and drain-on-REF vs T_RH");
    table.header({"T_RH", "ATH", "A'", "p", "C", "ATH*",
                  "Drain-on-REF", "paper (A',p,C,ATH*,drain)"});
    for (const PaperRef &ref : {PaperRef{250, "187, 1/4, 15, 60, 4"},
                                PaperRef{500, "440, 1/8, 19, 152, 2"},
                                PaperRef{1000, "942, 1/16, 21, 336, 1"}}) {
        const MopacDDerived d = deriveMopacD(ref.trh);
        table.row({std::to_string(d.trh), std::to_string(d.ath),
                   std::to_string(d.a_prime),
                   format("1/{}", 1u << d.log2_inv_p),
                   std::to_string(d.c), std::to_string(d.ath_star),
                   std::to_string(d.drain_per_ref), ref.paper});
    }
    table.note("A' = ATH - TTH (TTH = 32, §6.3); the paper's Table 8 "
               "prints A' = 942 at T_RH 1000 (975 - 32 = 943, a "
               "typesetting slip that does not change C).");
    table.print(os);
}

} // namespace

extern const Exhibit tab08_mopac_d_params{"tab08_mopac_d_params",
                                          nullptr, render};

} // namespace mopac::bench
