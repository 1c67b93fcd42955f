/**
 * @file
 * Reproduces Table 15 (Appendix C): slowdowns of PRAC and MoPAC-D
 * under proactive row-closure policies -- open-page, close-page, and
 * timeout closure at tON = 100 / 200 ns.  Paper: PRAC 10% / 7.1% /
 * 7.5% / 8.2%; MoPAC-D@500 0.8% / 1.3% / 1.0% / 0.9%.
 */

#include "bench_util.hh"

namespace mopac::bench
{
namespace
{

/**
 * Per policy: PRAC@500, then MoPAC-D at T_RH 1000 / 500 / 250, each
 * against a baseline with the same closure policy (the paper's
 * comparison).
 */
std::vector<GridRow>
grid()
{
    struct Policy
    {
        const char *name;
        const char *detail;
        PagePolicy policy;
        double ton_ns;
        const char *paper;
    };
    std::vector<GridRow> rows;
    for (const Policy &p :
         {Policy{"Open-Page", "open-page", PagePolicy::kOpen, 0.0,
                 "10% | 0.1% 0.8% 3.5%"},
          Policy{"Close-Page", "close-page", PagePolicy::kClose, 0.0,
                 "7.1% | 0.4% 1.3% 4.9%"},
          Policy{"tON = 100ns", "tON=100ns", PagePolicy::kTimeout,
                 100.0, "7.5% | 0.5% 1.0% 4.2%"},
          Policy{"tON = 200ns", "tON=200ns", PagePolicy::kTimeout,
                 200.0, "8.2% | 0.3% 0.9% 3.8%"}}) {
        auto cell = [&p](MitigationKind kind, std::uint32_t trh) {
            NamedConfig out = benchCell(kind, trh, p.detail);
            out.cfg.mc.page_policy = p.policy;
            if (p.policy == PagePolicy::kTimeout) {
                out.cfg.mc.timeout_ton = nsToCycles(p.ton_ns);
            }
            return out;
        };
        rows.push_back({p.name,
                        {cell(MitigationKind::kPracMoat, 500),
                         cell(MitigationKind::kMopacD, 1000),
                         cell(MitigationKind::kMopacD, 500),
                         cell(MitigationKind::kMopacD, 250)},
                        p.paper,
                        cell(MitigationKind::kNone, 500)});
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
    TextTable table("Table 15: slowdowns with proactive row closure");
    table.header({"policy", "PRAC", "MoPAC-D@1000", "MoPAC-D@500",
                  "MoPAC-D@250", "paper (PRAC | D@1K,500,250)"});
    table.note("Closing rows ahead of conflicts takes PRAC's 36 ns "
               "precharge off the critical path (10% -> ~7%), at the "
               "cost of refetching row hits; the paper also notes "
               "the close-page *baseline* is 1.8% slower than "
               "open-page.");
    gridTable(lab, os, std::move(table), grid());
}

} // namespace

extern const Exhibit tab15_row_closure{"tab15_row_closure", declare, render};

} // namespace mopac::bench
