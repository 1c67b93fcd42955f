/**
 * @file
 * Reproduces Table 13: the Rowhammer threshold tolerated by MoPAC-D,
 * MINT and PrIDE as the time reserved for Rowhammer work per REF is
 * varied (paper §9.2).
 */

#include "analysis/related.hh"
#include "bench_util.hh"
#include "common/format.hh"

namespace mopac::bench
{
namespace
{

void
render(SlowdownLab &, std::ostream &os)
{
    TextTable table("Table 13: Tolerated T_RH vs mitigation time "
                    "per REF");
    table.header({"Mitigation time per REF", "MoPAC-D", "MINT",
                  "PrIDE", "paper (MoPAC-D / MINT / PrIDE)"});
    struct Ref
    {
        double budget_ns;
        const char *label;
        const char *paper;
    };
    for (const Ref &ref :
         {Ref{240.0, "4 victim rows (240ns)", "250 / 1491 / 1975"},
          Ref{120.0, "2 victim rows (120ns)", "500 / 2920 / 3808"},
          Ref{60.0, "1 victim row (60ns)", "1000 / 5725 / 7474"}}) {
        const std::uint32_t mopac = mopacDToleratedTrh(ref.budget_ns);
        const double mint = mintToleratedTrh(ref.budget_ns);
        const double pride = prideToleratedTrh(ref.budget_ns);
        table.row({ref.label, std::to_string(mopac),
                   format("{:.0f} ({:.1f}x)", mint,
                          mint / mopac),
                   format("{:.0f} ({:.1f}x)", pride,
                          pride / mopac),
                   ref.paper});
    }
    table.note("Counter updates stretch a fixed REF budget ~6x "
               "further than MINT's aggressor mitigations and ~8x "
               "further than PrIDE's (the paper's conclusion).");
    table.note("MINT/PrIDE columns come from the escape-probability "
               "models documented in DESIGN.md; they reproduce the "
               "published numbers within a few percent.");
    table.print(os);
}

} // namespace

extern const Exhibit tab13_related_trh{"tab13_related_trh", nullptr, render};

} // namespace mopac::bench
