/**
 * @file
 * Reproduces Figure 19 (Appendix B): MoPAC-D slowdown as the number
 * of DRAM chips per sub-channel varies (1 / 2 / 4 / 8 / 16).  Each
 * chip samples independently, so more chips raise the chance that
 * some chip fills its SRQ and pulls ALERT.  Paper at T_RH 250:
 * 2.7% / 3.1% / 3.5% / 3.9% / 4.2%.
 */

#include "bench_util.hh"

namespace mopac::bench
{
namespace
{

const unsigned kChips[] = {1, 2, 4, 8, 16};

const PaperRef kRefs[] = {{250, "2.7/3.1/3.5/3.9/4.2% (1..16 chips)"},
                          {500, "insignificant variation"},
                          {1000, "insignificant variation"}};

/**
 * Per threshold of kRefs and chip count: the geometry-matched
 * baseline, then MoPAC-D.  The exhibit pairs them itself (queueRuns),
 * since queue()'s baseline has a fixed geometry.
 */
std::vector<NamedConfig>
cells()
{
    std::vector<NamedConfig> out;
    for (const PaperRef &ref : kRefs) {
        for (unsigned chips : kChips) {
            for (MitigationKind kind :
                 {MitigationKind::kNone, MitigationKind::kMopacD}) {
                out.push_back(benchCell(
                    kind, ref.trh, "chips=" + std::to_string(chips)));
                out.back().cfg.geometry.chips = chips;
            }
        }
    }
    return out;
}

void
declare(SlowdownLab &lab)
{
    lab.queueRuns(cells(), sensitivitySubset());
}

void
render(SlowdownLab &lab, std::ostream &os)
{
    TextTable table("Figure 19: MoPAC-D slowdown vs chips per "
                    "sub-channel");
    table.header({"T_RH", "1 chip", "2", "4", "8", "16", "paper"});
    const std::vector<NamedConfig> grid = cells();
    auto cell = grid.begin();
    for (const PaperRef &ref : kRefs) {
        std::vector<std::string> row{std::to_string(ref.trh)};
        for (std::size_t c = 0; c < std::size(kChips); ++c, cell += 2) {
            std::vector<double> series;
            for (const std::string &name : sensitivitySubset()) {
                series.push_back(weightedSlowdown(
                    lab.run(cell[0].cfg, name), lab.run(cell[1].cfg, name)));
            }
            row.push_back(TextTable::pct(mean(series), 1));
        }
        row.push_back(ref.paper);
        table.row(row);
    }
    table.note("At T_RH 500 / 1000 the sampling probability is low "
               "enough (1/8, 1/16) that chip count barely matters; "
               "at 250 (p = 1/4) oversampling grows with chips.");
    table.print(os);
}

} // namespace

extern const Exhibit fig19_chip_count{"fig19_chip_count", declare, render};

} // namespace mopac::bench
