/**
 * @file
 * mopac_exhibits [EXHIBIT ...] [--jobs N] [--replay ID] [--list-points]
 *                [--journal DIR] [--resume DIR]
 *
 * Regenerates the named exhibits (none = all, in registry order) from
 * one sweep of their cells, in which a cell two exhibits share runs
 * once; the flags address that sweep.  An exhibit that reads a cell without an
 * OK result is reported and skipped; the exit code is the sweep's.
 */

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"

namespace mopac::bench
{

extern const Exhibit fig01_overview, fig02_prac_slowdown,
    fig09_mopac_c_perf, fig11_mopac_d_perf, fig12_drain_on_ref,
    fig13_srq_size, fig17_nup_perf, fig18_rowpress, fig19_chip_count,
    tab02_moat_ath, tab04_workloads, tab05_failure_budget,
    tab06_pe1_vs_c, tab07_mopac_c_params, tab08_mopac_d_params,
    tab09_attack_mopac_c, tab10_attack_mopac_d, tab11_nup_ath,
    tab12_srq_insertions, tab13_related_trh, tab15_row_closure,
    abl_mint_vs_para, abl_tth_sweep, abl_tracker_landscape, smoke_busy;

/** The registry, in the order a run with no names prints it. */
const Exhibit *const kExhibits[] = {
    &fig01_overview,       &fig02_prac_slowdown,  &fig09_mopac_c_perf,
    &fig11_mopac_d_perf,   &fig12_drain_on_ref,   &fig13_srq_size,
    &fig17_nup_perf,       &fig18_rowpress,       &fig19_chip_count,
    &tab02_moat_ath,       &tab04_workloads,      &tab05_failure_budget,
    &tab06_pe1_vs_c,       &tab07_mopac_c_params, &tab08_mopac_d_params,
    &tab09_attack_mopac_c, &tab10_attack_mopac_d, &tab11_nup_ath,
    &tab12_srq_insertions, &tab13_related_trh,    &tab15_row_closure,
    &abl_mint_vs_para,     &abl_tth_sweep,        &abl_tracker_landscape,
    &smoke_busy};

} // namespace mopac::bench

int
main(int argc, char **argv)
{
    using namespace mopac;
    using namespace mopac::bench;

    std::vector<std::string> names;
    for (const Exhibit *exhibit : kExhibits) {
        names.push_back(exhibit->name);
    }
    const BenchOptions opts = parseBenchArgs(argc, argv, names);

    std::vector<const Exhibit *> selected;
    for (const std::string &name :
         opts.exhibits.empty() ? names : opts.exhibits) {
        for (const Exhibit *exhibit : kExhibits) {
            if (name == exhibit->name) {
                selected.push_back(exhibit);
            }
        }
    }

    SlowdownLab lab;
    for (const Exhibit *exhibit : selected) {
        if (exhibit->declare != nullptr) {
            exhibit->declare(lab);
        }
    }
    lab.execute(opts);

    for (const Exhibit *exhibit : selected) {
        std::ostringstream out;
        try {
            exhibit->render(lab, out);
        } catch (const MissingCell &e) {
            warn("{}: {}", exhibit->name, e.what());
            continue;
        }
        std::cout << out.str();
    }
    return finalExitCode();
}
