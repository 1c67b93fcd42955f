/**
 * @file
 * Smoke-test sweep: one busy workload (mcf, 28.8 MPKI) across every
 * mitigation kind at T_RH 500.  Not a paper exhibit -- this is the
 * sweep the crash-safety smoke test (kill_resume_smoke) runs so
 * journal resume is exercised on saturated-scheduler state (indexed
 * FR-FCFS queues, per-bank ready lists, SoA trackers), not only on
 * idle-heavy points.
 */

#include "bench_util.hh"

namespace mopac::bench
{
namespace
{

const MitigationKind kKinds[] = {
    MitigationKind::kPracMoat, MitigationKind::kMopacC,
    MitigationKind::kMopacD,   MitigationKind::kMint,
    MitigationKind::kPride,    MitigationKind::kTrr,
    MitigationKind::kPara,     MitigationKind::kGraphene,
    MitigationKind::kQprac,
};

void
declare(SlowdownLab &lab)
{
    std::vector<NamedConfig> cells;
    for (MitigationKind kind : kKinds) {
        cells.push_back(benchCell(kind, 500));
    }
    lab.queue(cells, {"mcf"});
}

void
render(SlowdownLab &lab, std::ostream &os)
{
    TextTable table("Smoke sweep: mcf slowdown per mitigation, "
                    "T_RH 500");
    table.header({"mitigation", "slowdown"});
    for (MitigationKind kind : kKinds) {
        const double s = lab.slowdown(benchConfig(kind, 500), "mcf");
        table.row({toString(kind), TextTable::pct(s, 2)});
    }
    table.note("Busy-point coverage for the smoke tests; no paper "
               "counterpart.");
    table.print(os);
}

} // namespace

extern const Exhibit smoke_busy{"smoke_busy", declare, render};

} // namespace mopac::bench
