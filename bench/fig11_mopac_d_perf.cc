/**
 * @file
 * Reproduces Figure 11: per-workload slowdown of PRAC and MoPAC-D at
 * T_RH 1000 / 500 / 250.  Paper averages: PRAC 10%; MoPAC-D 0.1% /
 * 0.8% / 3.5%.
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
    TextTable table("Figure 11: PRAC vs MoPAC-D slowdown (T_RH 1000/500/250)");
    table.header({"workload", "PRAC", "MoPAC-D@1000", "MoPAC-D@500",
                  "MoPAC-D@250"});
    table.note("Paper averages: PRAC 10%; MoPAC-D 0.1% / 0.8% / 3.5% "
               "at T_RH 1000 / 500 / 250 (drain-on-REF 1 / 2 / 4 and "
               "a 16-entry SRQ per chip).");
    perWorkloadTable(lab, os, std::move(table), cells());
}

} // namespace

extern const Exhibit fig11_mopac_d_perf{"fig11_mopac_d_perf", declare, render};

} // namespace mopac::bench
