/**
 * @file
 * Reproduces Figure 2: per-workload slowdown of PRAC+ABO (MOAT) over
 * the unprotected baseline at T_RH 4000 / 500 / 100.  The paper's
 * observation: the three bars are identical (~10% average, 18% worst
 * case, ~1% for STREAM) because the latency tax, not ABO, dominates.
 */

#include "bench_util.hh"

namespace mopac::bench
{
namespace
{

std::vector<NamedConfig>
cells()
{
    std::vector<NamedConfig> out;
    for (std::uint32_t trh : {4000u, 500u, 100u}) {
        out.push_back(benchCell(MitigationKind::kPracMoat, trh));
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
    TextTable table("Figure 2: PRAC slowdown at T_RH 4000 / 500 / 100");
    table.header({"workload", "T_RH=4000", "T_RH=500", "T_RH=100"});
    table.note("Paper: 10% average, 18% worst case, ~1% for STREAM, "
               "identical across the three thresholds.");
    table.note("STREAM rows carry run-to-run noise of a few percent "
               "from chaotic bank-conflict phasing (see "
               "EXPERIMENTS.md).");
    perWorkloadTable(lab, os, std::move(table), cells());
}

} // namespace

extern const Exhibit fig02_prac_slowdown{"fig02_prac_slowdown",
                                         declare, render};

} // namespace mopac::bench
