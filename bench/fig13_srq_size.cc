/**
 * @file
 * Reproduces Figure 13: MoPAC-D slowdown as the SRQ size is varied
 * (8 / 16 / 32 entries) at T_RH 1000 / 500 / 250.  Paper averages:
 * 1000: 0.5/0.1/0.1%; 500: 1.9/0.8/0.3%; 250: 9.0/3.5/2.7%.
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
    for (const PaperRef &ref : {PaperRef{1000, "0.5% / 0.1% / 0.1%"},
                                PaperRef{500, "1.9% / 0.8% / 0.3%"},
                                PaperRef{250, "9.0% / 3.5% / 2.7%"}}) {
        GridRow row{std::to_string(ref.trh), {}, ref.paper};
        for (unsigned srq : {8u, 16u, 32u}) {
            row.cells.push_back(benchCell(MitigationKind::kMopacD,
                                          ref.trh,
                                          "srq=" + std::to_string(srq)));
            row.cells.back().cfg.srq_capacity = srq;
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
    TextTable table("Figure 13: MoPAC-D slowdown vs SRQ size");
    table.header({"T_RH", "SRQ=8", "SRQ=16", "SRQ=32",
                  "paper (8/16/32)"});
    table.note("Lower thresholds fill the queue faster (insertion "
               "every 1/p ACTs), so T_RH 250 benefits most from a "
               "bigger SRQ (96 B per bank at 32 entries).");
    table.note("Averaged over the 8-workload sensitivity subset.");
    gridTable(lab, os, std::move(table), grid());
}

} // namespace

extern const Exhibit fig13_srq_size{"fig13_srq_size", declare, render};

} // namespace mopac::bench
