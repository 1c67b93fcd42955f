/**
 * @file
 * Reproduces Table 2: the MOAT ALERT threshold (ATH) for T_RH of
 * 1000 / 500 / 250 (paper §2.6), plus the interpolated values used
 * for Figure 1(d)'s higher thresholds.
 */

#include "analysis/moat_model.hh"
#include "bench_util.hh"

namespace mopac::bench
{
namespace
{

void
render(SlowdownLab &, std::ostream &os)
{
    TextTable table("Table 2: The ALERT Threshold (ATH) of MOAT");
    table.header({"Rowhammer Threshold (T_RH)", "ATH (paper)",
                  "ATH (this repo)", "slippage"});
    for (const PaperRef &row : {PaperRef{1000, "975"}, PaperRef{500, "472"},
                                PaperRef{250, "219"}}) {
        table.row({std::to_string(row.trh), row.paper,
                   std::to_string(moatAth(row.trh)),
                   std::to_string(moatSlippage(row.trh))});
    }
    table.separator();
    for (std::uint32_t trh : {4000u, 2000u, 125u}) {
        table.row({std::to_string(trh), "-",
                   std::to_string(moatAth(trh)),
                   std::to_string(moatSlippage(trh))});
    }
    table.note("Rows below the rule are the fitted-curve extensions "
               "used by Figure 1(d); the paper publishes only the "
               "first three.");
    table.print(os);
}

} // namespace

extern const Exhibit tab02_moat_ath{"tab02_moat_ath", nullptr, render};

} // namespace mopac::bench
