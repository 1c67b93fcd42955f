/**
 * @file
 * Reproduces Table 12: SRQ insertions (selections) per 100
 * activations, with and without NUP, at T_RH 1000 / 500 / 250.
 * Paper: 6.2 -> 3.1, 12.5 -> 6.3, 25.0 -> 13.4.
 */

#include "analysis/security.hh"
#include "bench_util.hh"

namespace mopac::bench
{
namespace
{

const PaperRef kRefs[] = {{1000, "6.2 / 3.1 (0.5x)"},
                          {500, "12.5 / 6.3 (0.5x)"},
                          {250, "25.0 / 13.4 (0.54x)"}};

/** MoPAC-D per threshold of kRefs, with uniform sampling then NUP. */
std::vector<NamedConfig>
cells()
{
    std::vector<NamedConfig> out;
    for (const PaperRef &ref : kRefs) {
        for (bool nup : {false, true}) {
            out.push_back(benchCell(MitigationKind::kMopacD, ref.trh,
                                    nup ? "nup" : "uniform"));
            out.back().cfg.nup = nup;
        }
    }
    return out;
}

/** Per-chip SRQ selections per 100 ACTs across the workload set. */
double
selectionsPer100Acts(const SlowdownLab &lab, const SystemConfig &cfg)
{
    const std::vector<std::string> names = sensitivitySubset();
    double sum = 0.0;
    for (const std::string &name : names) {
        const RunResult &r = lab.run(cfg, name);
        const double per_chip =
            static_cast<double>(r.srq_insertions) /
            cfg.geometry.chips;
        sum += 100.0 * per_chip / static_cast<double>(r.acts);
    }
    return sum / static_cast<double>(names.size());
}

void
declare(SlowdownLab &lab)
{
    lab.queueRuns(cells(), sensitivitySubset());
}

void
render(SlowdownLab &lab, std::ostream &os)
{
    TextTable table(
        "Table 12: SRQ insertions per 100 ACTs (lower is better)");
    table.header({"T_RH (p)", "MoPAC-D (Uniform)", "MoPAC-D (NUP)",
                  "ratio", "paper (uniform / NUP)"});
    const std::vector<NamedConfig> grid = cells();
    for (std::size_t i = 0; i < std::size(kRefs); ++i) {
        const PaperRef &ref = kRefs[i];
        const double uni = selectionsPer100Acts(lab, grid[2 * i].cfg);
        const double nup =
            selectionsPer100Acts(lab, grid[2 * i + 1].cfg);
        const unsigned inv_p =
            1u << deriveMopacD(ref.trh).log2_inv_p;
        table.row({mopac::format("{} (p=1/{})", ref.trh, inv_p),
                   TextTable::fmt(uni, 1), TextTable::fmt(nup, 1),
                   mopac::format("{:.2f}x", nup / uni), ref.paper});
    }
    table.note("Counts unique-row insertions per chip (coalesced "
               "re-selections of queued rows excluded, as in the "
               "paper's 'insertions').  Uniform sampling inserts "
               "~100p per 100 ACTs; NUP halves it because most rows "
               "hold a zero counter within tREFW (§8.4).");
    table.print(os);
}

} // namespace

extern const Exhibit tab12_srq_insertions{"tab12_srq_insertions",
                                          declare, render};

} // namespace mopac::bench
