/**
 * @file
 * Ablation: the Rowhammer-tracker design space the paper navigates
 * (§2.4-2.6, §9), on one page.  For every engine in the repository:
 * the benign-workload cost, the ABO/mitigation activity, the SRAM it
 * implies, and whether it survives the attack battery at T_RH 500.
 */

#include <string>
#include <vector>

#include "bench_util.hh"
#include "mitigation/extra_engines.hh"
#include "sim/attack.hh"

namespace mopac::bench
{
namespace
{

const MitigationKind kKinds[] = {
    MitigationKind::kNone,     MitigationKind::kTrr,
    MitigationKind::kPara,     MitigationKind::kMint,
    MitigationKind::kPride,    MitigationKind::kGraphene,
    MitigationKind::kPracMoat, MitigationKind::kQprac,
    MitigationKind::kMopacC,   MitigationKind::kMopacD};

/** Worst oracle exposure over the three-pattern attack battery. */
std::pair<std::uint32_t, std::uint64_t>
attackBattery(MitigationKind kind)
{
    std::uint32_t worst = 0;
    std::uint64_t violations = 0;
    for (int pattern = 0; pattern < 3; ++pattern) {
        SystemConfig cfg = makeConfig(kind, 500);
        AttackRunner runner(cfg);
        const AddressMap &map = runner.system().addressMap();
        AttackPattern p =
            pattern == 0 ? makeDoubleSidedAttack(map, 0, 0, 1000)
            : pattern == 1
                ? makeManySidedAttack(map, 0, 0, 48, 3000)
                : makeTrrEvasionAttack(map, 0, 0, 9000);
        const AttackResult res = runner.run(p, nsToCycles(2.0e6), 8);
        worst = std::max(worst, res.max_unmitigated);
        violations += res.violations;
    }
    return {worst, violations};
}

/** Rough per-bank SRAM bill of each design (bytes). */
std::string
sramPerBank(MitigationKind kind)
{
    switch (kind) {
      case MitigationKind::kNone: return "0";
      case MitigationKind::kTrr: return "~96 (16 entries)";
      case MitigationKind::kPara: return "0";
      case MitigationKind::kMint: return "~8 (1 candidate)";
      case MitigationKind::kPride: return "~16 (4-entry FIFO)";
      case MitigationKind::kGraphene: {
        GrapheneTracker::Params p;
        p.mitigation_threshold = 250;
        return "~" +
               std::to_string(GrapheneTracker::deriveEntries(250) * 6) +
               " (" +
               std::to_string(GrapheneTracker::deriveEntries(250)) +
               " entries)";
      }
      case MitigationKind::kPracMoat: return "~8 + in-DRAM counters";
      case MitigationKind::kQprac: return "~32 + in-DRAM counters";
      case MitigationKind::kMopacC: return "~8 + in-DRAM counters";
      case MitigationKind::kMopacD:
        return "48 (16-entry SRQ) + counters";
    }
    return "?";
}

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
    TextTable table("Tracker landscape at T_RH 500 "
                    "(benign cost vs security vs SRAM)");
    table.header({"design", "slowdown (mcf)", "ALERTs", "mitigations",
                  "worst exposure", "secure?", "SRAM per bank"});

    for (MitigationKind kind : kKinds) {
        SystemConfig cfg = benchConfig(kind, 500);
        const double slowdown = lab.slowdown(cfg, "mcf");
        const RunResult &run = lab.run(cfg, "mcf");
        const auto [worst, violations] = attackBattery(kind);
        table.row({toString(kind), TextTable::pct(slowdown, 1),
                   std::to_string(run.alerts),
                   std::to_string(run.mitigations),
                   std::to_string(worst),
                   violations == 0 ? "yes" : "NO",
                   sramPerBank(kind)});
    }
    table.note("Security column: worst ground-truth exposure across "
               "double-sided, 48-row many-sided, and TRRespass-style "
               "evasion patterns (2 ms each).");
    table.note("The paper's position in this landscape: PRAC is "
               "secure but taxes every benign access ~10%; MoPAC "
               "keeps PRAC's security at a fraction of the tax and "
               "tiny SRAM, unlike Graphene-class trackers.");
    table.print(os);
}

} // namespace

extern const Exhibit abl_tracker_landscape{"abl_tracker_landscape",
                                           declare, render};

} // namespace mopac::bench
