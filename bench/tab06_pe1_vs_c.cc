/**
 * @file
 * Reproduces Table 6: the row failure probability P_e1 as the
 * critical update count C varies from 20 to 25, at T_RH 250 / 500 /
 * 1000, with the multiple relative to the respective epsilon.  The
 * largest C whose failure probability stays below epsilon (bold in
 * the paper) is marked with '*'.
 */

#include "analysis/binomial.hh"
#include "analysis/moat_model.hh"
#include "analysis/security.hh"
#include "bench_util.hh"
#include "common/format.hh"

namespace mopac::bench
{
namespace
{

void
render(SlowdownLab &, std::ostream &os)
{
    TextTable table(
        "Table 6: Row failure probability P_e1 at varying T_RH");
    table.header({"C", "T_RH=250 (eps 5.99e-9)",
                  "T_RH=500 (eps 8.48e-9)",
                  "T_RH=1000 (eps 1.20e-8)"});

    const std::uint32_t trhs[3] = {250, 500, 1000};
    std::uint32_t critical[3];
    for (int i = 0; i < 3; ++i) {
        const unsigned k = defaultLog2InvP(trhs[i]);
        critical[i] = findCriticalC(moatAth(trhs[i]),
                                    1.0 / (1u << k),
                                    epsilonFor(trhs[i]));
    }

    for (std::uint32_t c = 20; c <= 25; ++c) {
        std::vector<std::string> cells{std::to_string(c)};
        for (int i = 0; i < 3; ++i) {
            const std::uint32_t trh = trhs[i];
            const unsigned k = defaultLog2InvP(trh);
            const double p = 1.0 / (1u << k);
            const double eps = epsilonFor(trh);
            // Paper convention: the C-labelled row is P(N <= C).
            const double pe1 = static_cast<double>(
                binomialCdfBelow(moatAth(trh), c + 1, p));
            std::string cell = format("{:.1e} ({:.2g}x)", pe1,
                                      pe1 / eps);
            if (c == critical[i]) {
                cell += " *";
            }
            cells.push_back(cell);
        }
        table.row(cells);
    }
    table.note("'*' marks the largest C with P_e1 < epsilon (the "
               "paper's bold entries: 20 / 22 / 23).");
    table.note("Paper reference diagonals: 250: C=21 -> 6.1e-9; "
               "500: C=22 -> 5.9e-9; 1000: C=23 -> 1.08e-8.");
    table.print(os);
}

} // namespace

extern const Exhibit tab06_pe1_vs_c{"tab06_pe1_vs_c", nullptr, render};

} // namespace mopac::bench
