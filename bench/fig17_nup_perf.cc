/**
 * @file
 * Reproduces Figure 17: MoPAC-D slowdown with and without
 * Non-Uniform Probability at T_RH 1000 / 500 / 250.  Paper averages:
 * uniform 0.1% / 0.8% / 3.5%; NUP 0% / 0% / 1.1%.
 */

#include "bench_util.hh"

namespace mopac::bench
{
namespace
{

std::vector<GridRow>
grid()
{
    std::vector<GridRow> rows;
    for (const PaperRef &ref : {PaperRef{1000, "0.1% / 0%"},
                                PaperRef{500, "0.8% / 0%"},
                                PaperRef{250, "3.5% / 1.1%"}}) {
        GridRow row{std::to_string(ref.trh), {}, ref.paper};
        for (bool nup : {false, true}) {
            row.cells.push_back(benchCell(MitigationKind::kMopacD,
                                          ref.trh,
                                          nup ? "nup" : "uniform"));
            row.cells.back().cfg.nup = nup;
        }
        rows.push_back(row);
    }
    return rows;
}

void
declare(SlowdownLab &lab)
{
    queueGrid(lab, grid());
}

void
render(SlowdownLab &lab, std::ostream &os)
{
    TextTable table(
        "Figure 17: MoPAC-D slowdown with and without NUP");
    table.header({"T_RH", "MoPAC-D (uniform)", "MoPAC-D (NUP)",
                  "paper (uniform / NUP)"});
    table.note("NUP samples zero-count rows at p/2, roughly halving "
               "SRQ pressure (Table 12) at a slightly lower ATH* "
               "(Table 11); averaged over the sensitivity subset.");
    gridTable(lab, os, std::move(table), grid());
}

} // namespace

extern const Exhibit fig17_nup_perf{"fig17_nup_perf", declare, render};

} // namespace mopac::bench
