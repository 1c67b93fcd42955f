/**
 * @file
 * Reproduces Figure 1(d): average slowdown of PRAC versus MoPAC as
 * the Rowhammer threshold scales from 4K (near-term) down to 125
 * (long-term).  The paper's curve: PRAC flat at ~10%; MoPAC 0.2% at
 * 4K, 1.5% at 500, 2.5% at 250.
 */

#include "analysis/security.hh"
#include "bench_util.hh"

namespace mopac::bench
{
namespace
{

/** PRAC@500, then MoPAC-C and MoPAC-D at each threshold. */
std::vector<NamedConfig>
cells()
{
    std::vector<NamedConfig> out{
        benchCell(MitigationKind::kPracMoat, 500)};
    for (std::uint32_t trh : {4000u, 2000u, 1000u, 500u, 250u, 125u}) {
        out.push_back(benchCell(MitigationKind::kMopacC, trh));
        out.push_back(benchCell(MitigationKind::kMopacD, trh));
    }
    return out;
}

void
declare(SlowdownLab &lab)
{
    lab.queue(cells(), allWorkloadNames());
}

void
render(SlowdownLab &lab, std::ostream &os)
{
    const std::vector<std::string> names = allWorkloadNames();
    const std::vector<NamedConfig> grid = cells();
    // PRAC is threshold-independent: measure once.
    const double prac_avg = lab.average(grid[0].cfg, names);

    TextTable table("Figure 1(d): PRAC vs MoPAC average slowdown "
                    "across Rowhammer thresholds");
    table.header({"T_RH", "p", "PRAC", "MoPAC-C", "MoPAC-D"});
    for (std::size_t i = 1; i < grid.size(); i += 2) {
        const std::uint32_t trh = grid[i].cfg.trh;
        const MopacCDerived d = deriveMopacC(trh);
        table.row({std::to_string(trh),
                   "1/" + std::to_string(1u << d.log2_inv_p),
                   TextTable::pct(prac_avg, 1),
                   TextTable::pct(lab.average(grid[i].cfg, names), 1),
                   TextTable::pct(lab.average(grid[i + 1].cfg, names),
                                  1)});
    }
    table.note("Paper Figure 1(d): PRAC ~10% at every threshold; "
               "MoPAC falls from ~0.2% (T_RH 4K, p=1/64) to ~1.5% "
               "(500) to ~2.5% (250).");
    table.print(os);
}

} // namespace

extern const Exhibit fig01_overview{"fig01_overview", declare, render};

} // namespace mopac::bench
