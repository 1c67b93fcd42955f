/**
 * @file
 * Reproduces Figure 9: per-workload slowdown of PRAC and MoPAC-C at
 * T_RH 1000 / 500 / 250.  Paper averages: PRAC 10%; MoPAC-C 0.8% /
 * 1.8% / 3.0%.
 */

#include "bench_util.hh"

namespace mopac::bench
{
namespace
{

std::vector<NamedConfig>
cells()
{
    std::vector<NamedConfig> out{
        benchCell(MitigationKind::kPracMoat, 500)};
    for (std::uint32_t trh : {1000u, 500u, 250u}) {
        out.push_back(benchCell(MitigationKind::kMopacC, trh));
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
    TextTable table("Figure 9: PRAC vs MoPAC-C slowdown (T_RH 1000/500/250)");
    table.header({"workload", "PRAC", "MoPAC-C@1000", "MoPAC-C@500",
                  "MoPAC-C@250"});
    table.note("Paper averages: PRAC 10%; MoPAC-C 0.8% / 1.8% / 3.0% "
               "at T_RH 1000 / 500 / 250 (PRAC shown once; its "
               "overhead is threshold-independent, Figure 2).");
    perWorkloadTable(lab, os, std::move(table), cells());
}

} // namespace

extern const Exhibit fig09_mopac_c_perf{"fig09_mopac_c_perf", declare, render};

} // namespace mopac::bench
