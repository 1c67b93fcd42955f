/**
 * @file
 * Reproduces Table 4: workload characteristics -- MPKI, row-buffer
 * hit rate, activations per tREFI per bank (APRI), and the hot-row
 * columns ACT-64+/ACT-200+.
 *
 * SPEC traces are not redistributable; this table validates that the
 * synthetic generators (src/workload) land on the paper's measured
 * characteristics.  The hot-row columns are measured over 2 ms
 * epochs with thresholds scaled from the paper's 32 ms window
 * (64 * 2/32 = 4 and 200 * 2/32 = 13) under a stationarity
 * assumption; see EXPERIMENTS.md for the caveats.
 */

#include "bench_util.hh"

namespace mopac::bench
{
namespace
{

/** The unprotected run, with epoch hot-row tracking. */
NamedConfig
epochCell()
{
    NamedConfig cell =
        benchCell(MitigationKind::kNone, 500, "epoch=2ms");
    SystemConfig &cfg = cell.cfg;
    // Long enough to complete at least one 2 ms epoch per run.
    cfg.insts_per_core =
        std::max<std::uint64_t>(cfg.insts_per_core * 5, 1000000);
    cfg.warmup_insts = cfg.insts_per_core / 10;
    cfg.track_epoch_stats = true;
    cfg.epoch_cycles = nsToCycles(2.0e6);
    cfg.epoch_hi1 = 4;
    cfg.epoch_hi2 = 13;
    return cell;
}

void
declare(SlowdownLab &lab)
{
    lab.queueRuns({epochCell()}, allWorkloadNames());
}

void
render(SlowdownLab &lab, std::ostream &os)
{
    TextTable table(
        "Table 4: workload characteristics (measured | paper)");
    table.header({"workload", "MPKI", "RBHR", "APRI", "ACT-64+",
                  "ACT-200+"});

    const SystemConfig cfg = epochCell().cfg;
    for (const std::string &name : allWorkloadNames()) {
        const RunResult &r = lab.run(cfg, name);

        const double total_insts =
            static_cast<double>(cfg.insts_per_core +
                                cfg.warmup_insts) *
            cfg.num_cores;
        const double mpki = static_cast<double>(r.reads + r.writes) /
                            (total_insts / 1000.0);

        const bool is_mix = name.rfind("mix", 0) == 0;
        double ref_mpki = 0, ref_rbhr = 0, ref_apri = 0, ref_a64 = 0,
               ref_a200 = 0;
        if (!is_mix) {
            const WorkloadSpec &spec = findWorkload(name);
            ref_mpki = spec.ref_mpki;
            ref_rbhr = spec.ref_rbhr;
            ref_apri = spec.ref_apri;
            ref_a64 = spec.ref_act64;
            ref_a200 = spec.ref_act200;
        }
        auto cell = [&](double measured, double ref, int digits) {
            std::string out = TextTable::fmt(measured, digits);
            out += is_mix ? " | -" : " | " + TextTable::fmt(ref, digits);
            return out;
        };
        table.row({name, cell(mpki, ref_mpki, 1),
                   cell(r.rbhr, ref_rbhr, 2),
                   cell(r.apri, ref_apri, 1),
                   cell(r.act64, ref_a64, 1),
                   cell(r.act200, ref_a200, 1)});
    }
    table.note("Mix rows have no per-row reference: the paper's "
               "random draws differ from ours (spec.cc fixes one "
               "draw with the same hot-workload coverage).");
    table.note("STREAM kernels show non-zero ACT-64+ under the "
               "scaled-epoch metric because sequential sweeps "
               "concentrate a row's accesses in time (not "
               "stationary); the paper's full-32ms window reports 0.");
    table.print(os);
}

} // namespace

extern const Exhibit tab04_workloads{"tab04_workloads", declare, render};

} // namespace mopac::bench
