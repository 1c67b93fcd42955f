/**
 * @file
 * Reproduces Table 14 + Figure 18 (Appendix A): the Row-Press-aware
 * ATH* values and the slowdown of MoPAC-C / MoPAC-D with and without
 * integrated Row-Press protection at T_RH 1000 / 500.
 * Paper: 1000: C 0.9%, D 0.4%; 500: C 1.8%, D 6.8%.
 */

#include "analysis/security.hh"
#include "bench_util.hh"

namespace mopac::bench
{
namespace
{

std::vector<GridRow>
grid()
{
    struct Case
    {
        MitigationKind kind;
        std::uint32_t trh;
        const char *label;
        const char *paper;
    };
    std::vector<GridRow> rows;
    for (const Case &cs :
         {Case{MitigationKind::kMopacC, 1000, "MoPAC-C@1000", "0.9%"},
          Case{MitigationKind::kMopacD, 1000, "MoPAC-D@1000", "0.4%"},
          Case{MitigationKind::kMopacC, 500, "MoPAC-C@500", "1.8%"},
          Case{MitigationKind::kMopacD, 500, "MoPAC-D@500", "6.8%"}}) {
        NamedConfig rp = benchCell(cs.kind, cs.trh, "rowpress");
        rp.cfg.rowpress = true;
        if (cs.kind == MitigationKind::kMopacC) {
            // Appendix A: MoPAC-C caps the row-open time at 180 ns
            // via a timeout closure policy.
            rp.cfg.mc.page_policy = PagePolicy::kTimeout;
            rp.cfg.mc.timeout_ton = nsToCycles(180.0);
        }
        rows.push_back(
            {cs.label, {benchCell(cs.kind, cs.trh), rp}, cs.paper});
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
    // --- Table 14: adjusted ATH* -------------------------------------
    TextTable params("Table 14: ATH* modified for Row-Press");
    params.header({"T_RH", "p", "ATH* (MoPAC-C)", "ATH* (MoPAC-D)",
                   "paper (C / D)"});
    for (const PaperRef &ref :
         {PaperRef{500, "80 / 64"}, PaperRef{1000, "160 / 144"}}) {
        const MopacCDerived c = deriveMopacC(ref.trh, true);
        const MopacDDerived d = deriveMopacD(ref.trh, 32, true);
        params.row({std::to_string(ref.trh),
                    "1/" + std::to_string(1u << c.log2_inv_p),
                    std::to_string(c.ath_star),
                    std::to_string(d.ath_star), ref.paper});
    }
    params.note("ATH derated by the 1.5x Row-Press damage factor "
                "(180 ns open time ~ 1.5 activations of damage).");
    params.print(os);

    // --- Figure 18: slowdowns ----------------------------------------
    TextTable table("Figure 18: slowdown with and without Row-Press "
                    "(RP) protection");
    table.header({"config", "no RP", "with RP", "paper (with RP)"});
    table.note("MoPAC-D@500 degrades the most with RP (the paper "
               "sees 6.8%): the lower ATH* (64) plus SCtr inflation "
               "for long-open rows raises the ABO rate.");
    gridTable(lab, os, std::move(table), grid());
}

} // namespace

extern const Exhibit fig18_rowpress{"fig18_rowpress", declare, render};

} // namespace mopac::bench
