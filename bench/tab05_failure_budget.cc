/**
 * @file
 * Reproduces Table 5: the failure budget F (Eq. 3) and acceptable
 * single-side escape probability epsilon = sqrt(F) (Eq. 6) for the
 * 10K-year per-chip Bank-MTTF target.
 */

#include "analysis/security.hh"
#include "bench_util.hh"

namespace mopac::bench
{
namespace
{

void
render(SlowdownLab &, std::ostream &os)
{
    TextTable table(
        "Table 5: Values of F and epsilon for Varying Threshold");
    table.header({"Threshold (T)", "F", "epsilon",
                  "F (paper)", "epsilon (paper)"});
    struct Row
    {
        std::uint32_t trh;
        const char *f_paper;
        const char *eps_paper;
    };
    for (const Row &row :
         {Row{250, "3.59e-17", "5.99e-09"},
          Row{500, "7.19e-17", "8.48e-09"},
          Row{1000, "1.44e-16", "1.12e-08"}}) {
        table.row({std::to_string(row.trh),
                   TextTable::sci(failureBudgetF(row.trh), 2),
                   TextTable::sci(epsilonFor(row.trh), 2),
                   row.f_paper, row.eps_paper});
    }
    table.note("F = T * tRC / 3.2e20 with tRC = 46 ns; "
               "epsilon = sqrt(F) (double-sided pattern, Eq. 4-6).");
    table.note("The paper's Table 5 prints 1.12e-08 at T=1000; "
               "sqrt(1.44e-16) = 1.20e-08 -- a rounding artifact in "
               "the paper that does not change any derived C.");
    table.print(os);
}

} // namespace

extern const Exhibit tab05_failure_budget{"tab05_failure_budget",
                                          nullptr, render};

} // namespace mopac::bench
