/**
 * @file
 * The downscaled experiment points whose outputs are pinned by the
 * golden-value regression suite, and the code that evaluates them.
 *
 * Shared between tests/regression/test_golden_values.cc (compares
 * fresh results against tests/regression/golden_values.hh) and
 * tools/mopac_regen_golden.cc (rewrites that header).  Keeping the
 * point definitions in exactly one place guarantees the regenerator
 * and the test can never drift apart.
 *
 * Every config sets its scale fields explicitly -- cores, instruction
 * counts, seeds -- so bench-harness environment knobs cannot change
 * what the goldens mean.
 */

#ifndef MOPAC_TESTS_REGRESSION_GOLDEN_POINTS_HH
#define MOPAC_TESTS_REGRESSION_GOLDEN_POINTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/binomial.hh"
#include "analysis/moat_model.hh"
#include "analysis/security.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

namespace mopac
{
namespace golden
{

/** One pinned quantity: either an exact scalar or a real. */
struct GoldenValue
{
    std::string name;
    bool is_real = false;
    std::uint64_t u = 0;
    double d = 0.0;
};

inline SystemConfig
downscaled(MitigationKind kind, std::uint32_t trh)
{
    SystemConfig cfg = makeConfig(kind, trh);
    cfg.num_cores = 4;
    cfg.insts_per_core = 20000;
    cfg.warmup_insts = 2000;
    return cfg;
}

/**
 * One downscaled figure point: baseline + mitigation on a single
 * workload, run through the parallel Runner exactly like the full
 * figure sweeps.
 */
inline void
evalFigurePoint(const std::string &tag, MitigationKind kind,
                const std::string &workload,
                std::vector<GoldenValue> &out)
{
    SweepSpec spec;
    spec.master_seed = 12345;
    spec.configs = {{"base", downscaled(MitigationKind::kNone, 500)},
                    {"test", downscaled(kind, 500)}};
    spec.workloads = {workload};
    RunnerOptions opts;
    opts.jobs = 2;
    const auto results = Runner(opts).run(spec.expand());
    const RunResult &base = results[0].run;
    const RunResult &test = results[1].run;

    auto scalar = [&](const char *name, std::uint64_t v) {
        out.push_back({tag + "." + name, false, v, 0.0});
    };
    auto real = [&](const char *name, double v) {
        out.push_back({tag + "." + name, true, 0, v});
    };
    scalar("base.acts", base.acts);
    scalar("base.reads", base.reads);
    scalar("base.writes", base.writes);
    scalar("base.cycles", base.cycles);
    scalar("test.acts", test.acts);
    scalar("test.cycles", test.cycles);
    scalar("test.alerts", test.alerts);
    scalar("test.counter_updates", test.counter_updates);
    scalar("test.srq_insertions", test.srq_insertions);
    scalar("test.mitigations", test.mitigations);
    real("base.mean_ipc", base.meanIpc());
    real("slowdown", weightedSlowdown(base, test));
}

/** Evaluate every pinned quantity, in golden-file order. */
inline std::vector<GoldenValue>
computeGoldenValues()
{
    std::vector<GoldenValue> out;

    // Figure 9 (MoPAC-C performance), one downscaled point.
    evalFigurePoint("fig09.mopac_c.mcf", MitigationKind::kMopacC,
                    "mcf", out);

    // Figure 11 (MoPAC-D performance), one downscaled point.
    evalFigurePoint("fig11.mopac_d.xz", MitigationKind::kMopacD,
                    "xz", out);

    // Table 6 (analytic P_e1 model): the paper's bold diagonal.
    const struct
    {
        std::uint32_t trh;
        std::uint32_t c;
    } diag[3] = {{250, 21}, {500, 22}, {1000, 23}};
    for (const auto &cell : diag) {
        const unsigned k = defaultLog2InvP(cell.trh);
        const double p = 1.0 / (1u << k);
        out.push_back({"tab06.critical_c.trh" +
                           std::to_string(cell.trh),
                       false,
                       findCriticalC(moatAth(cell.trh), p,
                                     epsilonFor(cell.trh)),
                       0.0});
        out.push_back({"tab06.pe1.trh" + std::to_string(cell.trh) +
                           ".c" + std::to_string(cell.c),
                       true, 0,
                       static_cast<double>(binomialCdfBelow(
                           moatAth(cell.trh), cell.c + 1, p))});
    }
    return out;
}

} // namespace golden
} // namespace mopac

#endif // MOPAC_TESTS_REGRESSION_GOLDEN_POINTS_HH
