/**
 * @file
 * Reproduces Table 7: MoPAC-C's p, C and ATH* for T_RH of 250 / 500 /
 * 1000 (paper §5.4), plus the extended operating points used by
 * Figure 1(d).
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
    TextTable table("Table 7: MoPAC-C p, C and ATH* vs T_RH");
    table.header({"T_RH", "ATH", "p", "C (critical updates)", "ATH*",
                  "paper (ATH,p,C,ATH*)"});
    for (const PaperRef &ref : {PaperRef{250, "219, 1/4, 20, 80"},
                                PaperRef{500, "472, 1/8, 22, 176"},
                                PaperRef{1000, "975, 1/16, 23, 368"}}) {
        const MopacCDerived d = deriveMopacC(ref.trh);
        table.row({std::to_string(d.trh), std::to_string(d.ath),
                   format("1/{}", 1u << d.log2_inv_p),
                   std::to_string(d.c), std::to_string(d.ath_star),
                   ref.paper});
    }
    table.separator();
    for (std::uint32_t trh : {125u, 2000u, 4000u}) {
        const MopacCDerived d = deriveMopacC(trh);
        table.row({std::to_string(d.trh), std::to_string(d.ath),
                   format("1/{}", 1u << d.log2_inv_p),
                   std::to_string(d.c), std::to_string(d.ath_star),
                   "-"});
    }
    table.note("Rows below the rule are the Figure 1(d) extensions "
               "(p halves per threshold doubling, §1).");
    table.print(os);
}

} // namespace

extern const Exhibit tab07_mopac_c_params{"tab07_mopac_c_params",
                                          nullptr, render};

} // namespace mopac::bench
