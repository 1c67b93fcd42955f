/**
 * @file
 * Reproduces Figure 12: MoPAC-D slowdown as the drain-on-REF rate is
 * varied (0 / 1 / 2 / 4 SRQ entries per REF) at T_RH 1000 / 500 /
 * 250.  Paper averages: 1000: 3.1/0.1/0/0%; 500: 6.2/2.9/0.8/0.1%;
 * 250: 14.1/10.5/7.4/3.5%.
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
    for (const PaperRef &ref :
         {PaperRef{1000, "3.1% / 0.1% / 0% / 0%"},
          PaperRef{500, "6.2% / 2.9% / 0.8% / 0.1%"},
          PaperRef{250, "14.1% / 10.5% / 7.4% / 3.5%"}}) {
        GridRow row{std::to_string(ref.trh), {}, ref.paper};
        for (int drain : {0, 1, 2, 4}) {
            row.cells.push_back(benchCell(MitigationKind::kMopacD,
                                          ref.trh,
                                          "drain=" + std::to_string(drain)));
            row.cells.back().cfg.drain_per_ref = drain;
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
        "Figure 12: MoPAC-D slowdown vs drain-on-REF rate");
    table.header({"T_RH", "drain=0", "drain=1", "drain=2", "drain=4",
                  "paper (0/1/2/4)"});
    table.note("Averaged over the 8-workload sensitivity subset "
               "(see bench_util.hh); the paper averages all 23.");
    gridTable(lab, os, std::move(table), grid());
}

} // namespace

extern const Exhibit fig12_drain_on_ref{"fig12_drain_on_ref", declare, render};

} // namespace mopac::bench
