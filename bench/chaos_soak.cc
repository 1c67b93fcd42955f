/**
 * @file
 * Chaos soak: graceful-degradation study of the mitigation stack
 * under deterministic fault injection (robustness exhibit, not a
 * paper figure).
 *
 * Part A hammers each counter-based engine with a double-sided attack
 * while one fault kind fires at increasing intensity, and tabulates
 * the degradation: faults fired, worst unmitigated ACT count, oracle
 * violations, and the outcome class.  Intensity 0 rides the exact
 * no-fault path (no injector is even constructed), so its rows double
 * as the byte-identical control.
 *
 * Part B runs a small workload sweep on the parallel sim::Runner with
 * a stuck-open-bank plan plus a tight forward-progress watchdog, to
 * demonstrate that a locked-up configuration is classified HUNG and
 * quarantined (with its replay id) instead of hanging the sweep.
 * Each point runs once: a fault-plan point that classifies VIOLATED
 * or HUNG is reported as measured, never re-seeded until it passes.
 * The bench fails (exit 1) unless both clean controls finish ok and
 * the lockup is faulted/HUNG.
 *
 * Part C is a full-disk brownout drill: a journaled sweep on the
 * Runner's worker threads while every other result-store write fails
 * with an injected ENOSPC (setWriteFaultHook, common/serialize.hh).
 * Every failed write must be counted and tolerated, the report must
 * stay bit-identical to the serial run, and a resume with the disk
 * back must serve the stored points and re-run exactly the others.
 * A mismatch fails the bench (exit 1).
 *
 * Flags: the shared bench flags plus `--smoke` (short durations and a
 * reduced grid; what the ctest smoke run uses).
 */

#include <atomic>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.hh"
#include "common/serialize.hh"
#include "sim/attack.hh"
#include "sim/faults.hh"
#include "sim/result_store.hh"

namespace
{

using namespace mopac;
using namespace mopac::bench;

struct Engine
{
    const char *label;
    MitigationKind kind;
};

const std::vector<Engine> kEngines = {
    {"prac", MitigationKind::kPracMoat},
    {"qprac", MitigationKind::kQprac},
    {"mopac-c", MitigationKind::kMopacC},
    {"mopac-d", MitigationKind::kMopacD},
};

/**
 * Per-opportunity base rate for each kind, chosen so intensity 1.0 is
 * rough weather but not a guaranteed wipeout: opportunity counts per
 * kind differ by orders of magnitude (counter updates happen per ACT,
 * ALERTs a few times per tREFI), so the rarer the opportunity, the
 * higher the rate needed to matter.
 */
double
baseRate(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kAlertDrop: return 0.5;
      case FaultKind::kAlertDelay: return 0.5;
      case FaultKind::kRfmStarve: return 0.5;
      case FaultKind::kAboTruncate: return 0.5;
      case FaultKind::kCounterBitflip: return 0.01;
      case FaultKind::kCounterSaturate: return 0.01;
      case FaultKind::kCounterReset: return 0.02;
      case FaultKind::kMitigationSuppress: return 0.5;
      case FaultKind::kStuckOpenBank: return 0.001;
    }
    return 0.0;
}

OutcomeClass
classifyAttack(const AttackResult &res)
{
    if (res.violations > 0) {
        return OutcomeClass::kViolated;
    }
    if (res.faults_injected > 0) {
        return OutcomeClass::kDegraded;
    }
    return OutcomeClass::kOk;
}

void
degradationTable(bool smoke, const std::vector<double> &intensities)
{
    const Cycle duration =
        nsToCycles(smoke ? 1.0e5 : 1.0e6); // 0.1 / 1.0 ms of hammering
    TextTable table("chaos soak: degradation under fault injection");
    table.header({"engine", "fault", "intensity", "fired",
                  "max unmitigated", "violations", "outcome"});
    for (const Engine &eng : kEngines) {
        for (unsigned k = 0; k < kNumFaultKinds; ++k) {
            const auto kind = static_cast<FaultKind>(k);
            for (double intensity : intensities) {
                SystemConfig cfg = makeConfig(eng.kind, 500);
                cfg.seed = 1;
                cfg.faults = FaultPlan::single(kind, baseRate(kind));
                cfg.faults.intensity = intensity;
                // Short stuck windows keep the soak itself live.
                cfg.faults.spec(FaultKind::kStuckOpenBank).duration =
                    nsToCycles(500.0);
                AttackRunner runner(cfg);
                AttackPattern p = makeDoubleSidedAttack(
                    runner.system().addressMap(), 0, 0, 1000);
                const AttackResult res = runner.run(p, duration, 8);
                table.row({eng.label, toString(kind),
                           TextTable::fmt(intensity, 2),
                           std::to_string(res.faults_injected),
                           std::to_string(res.max_unmitigated),
                           std::to_string(res.violations),
                           toString(classifyAttack(res))});
            }
        }
    }
    table.print(std::cout);
}

void
quarantineSweep(bool smoke, const BenchOptions &opts)
{
    const std::uint64_t insts = smoke ? 20000 : 60000;

    std::vector<ExperimentPoint> points;
    auto add = [&](const std::string &label, const SystemConfig &cfg,
                   const std::string &workload) {
        ExperimentPoint p;
        p.point_id = points.size();
        p.config_label = label;
        p.workload = workload;
        p.cfg = cfg;
        points.push_back(std::move(p));
    };

    // A clean control point...
    SystemConfig clean = makeConfig(MitigationKind::kMopacD, 500);
    clean.seed = 7;
    clean.insts_per_core = insts;
    clean.warmup_insts = insts / 10;
    add("clean", clean, "mcf");

    // ...the same control on the legacy tick engine, so the chaos
    // harness exercises both run loops (and the sweep's merged stats
    // stay engine-independent)...
    SystemConfig clean_tick = clean;
    clean_tick.engine = SimEngine::kTick;
    add("clean-tick", clean_tick, "mcf");

    // ...a survivable fault plan (dropped ALERTs at modest rate)...
    SystemConfig degraded = clean;
    degraded.faults = FaultPlan::single(FaultKind::kAlertDrop, 0.25);
    add("alert-drop", degraded, "mcf");

    // ...and a certain lockup: every PRE fails forever, so the drain
    // stalls and the forward-progress watchdog must classify HUNG.
    SystemConfig stuck = clean;
    stuck.faults = FaultPlan::single(FaultKind::kStuckOpenBank, 1.0,
                                     kNeverCycle);
    stuck.watchdog_cycles = 200000;
    add("stuck-forever", stuck, "mcf");

    RunnerOptions ropts;
    ropts.jobs = opts.jobs;
    const std::vector<PointResult> results =
        Runner(ropts).run(points);

    TextTable table("chaos soak: sweep quarantine behaviour");
    table.header({"id", "config", "status", "outcome", "note"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const PointResult &r = results[i];
        std::string note = r.error;
        if (const auto cut = note.find('\n'); cut != std::string::npos) {
            note = note.substr(0, cut) + " ...";
        }
        table.row({std::to_string(r.point_id),
                   points[i].config_label, toString(r.status),
                   toString(r.outcome), note});
    }
    table.print(std::cout);

    // The controls decide the run's verdict: both clean points must
    // finish ok, and the lockup must be caught as a faulted HUNG
    // point.  Anything else means quarantine itself is broken.
    for (std::size_t i : {std::size_t{0}, std::size_t{1}}) {
        if (results[i].status != PointStatus::kOk) {
            fatal("chaos soak: control '{}' is {}, expected ok",
                  points[i].config_label, toString(results[i].status));
        }
    }
    const PointResult &hung = results[3];
    if (hung.status != PointStatus::kFaulted ||
        hung.outcome != OutcomeClass::kHung) {
        fatal("chaos soak: '{}' is {}/{}, expected faulted/HUNG",
              points[3].config_label, toString(hung.status),
              toString(hung.outcome));
    }
}

/**
 * Canonical bytes of one point result: everything deterministic
 * (status, outcome, seed, error, full RunResult and stats)
 * as the result store writes it, which leaves the wall time out.
 */
std::vector<std::uint8_t>
canonicalBytes(const PointResult &result)
{
    Serializer ser;
    transferPointResult(result, ser);
    return ser.finish(FileKind::kCacheEntry, result.point_id);
}

/** Points of @p report whose bytes differ from @p serial. */
std::size_t
mismatches(const std::vector<PointResult> &serial,
           const SweepReport &report)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        n += canonicalBytes(serial[i]) ==
                     canonicalBytes(report.results[i])
                 ? 0
                 : 1;
    }
    return n;
}

void
brownoutDrill(bool smoke)
{
    const std::uint64_t insts = smoke ? 15000 : 40000;

    // A small clean sweep (no fault plans): it has exactly one
    // correct report, so any divergence is the driver's fault.
    SweepSpec spec;
    spec.master_seed = 43;
    for (std::uint32_t trh : {500u, 1000u}) {
        SystemConfig cfg = makeConfig(MitigationKind::kMopacD, trh);
        cfg.insts_per_core = insts;
        cfg.warmup_insts = insts / 10;
        spec.configs.push_back(
            {"mopac-d@" + std::to_string(trh), cfg});
    }
    spec.workloads = {"mcf", "xz"};
    const std::vector<ExperimentPoint> points = spec.expand();

    RunnerOptions serial_opts;
    serial_opts.jobs = 1;
    const std::vector<PointResult> serial =
        Runner(serial_opts).run(points);

    const std::string dir =
        format("/tmp/mopac_chaos_brownout_{}", ::getpid());
    std::filesystem::remove_all(dir);

    RunnerOptions pool;
    pool.jobs = 3;
    TextTable table("chaos soak: full-disk brownout");
    table.header({"run", "injected", "observed", "verdict"});

    // Every other durable write fails before a byte lands: the count
    // is fixed (half the points, rounded up), whichever thread writes.
    std::atomic<std::uint64_t> writes{0};
    std::atomic<std::uint64_t> injected{0};
    setWriteFaultHook([&](const std::string &path) {
        if (writes.fetch_add(1) % 2 == 0) {
            injected.fetch_add(1);
            throw SerializeError("injected ENOSPC writing " + path);
        }
    });
    SweepReport report;
    {
        ResultStore store(dir);
        report = Runner(pool).sweep(points, &store);
    }
    setWriteFaultHook(nullptr);
    const std::size_t bad = mismatches(serial, report);
    table.row({"brownout", format("enospc {}", injected.load()),
               format("storage failures {}",
                      report.storage_write_failures),
               bad == 0 ? "identical" : "MISMATCH"});

    // The disk is back: the stored points are served and the points
    // whose writes failed re-run, to the same bytes.
    SweepReport resumed;
    {
        ResultStore store(dir);
        resumed = Runner(pool).sweep(points, &store);
    }
    const std::size_t bad_resume = mismatches(serial, resumed);
    table.row({"resume", "none",
               format("reused {} ran {}", resumed.cache_hits,
                      points.size() - resumed.cache_hits),
               bad_resume == 0 ? "identical" : "MISMATCH"});
    table.print(std::cout);
    std::filesystem::remove_all(dir);

    if (bad > 0 || bad_resume > 0) {
        fatal("brownout chaos: {} brownout and {} resumed results "
              "of {} differ from the serial run",
              bad, bad_resume, points.size());
    }
    if (injected.load() == 0 ||
        report.storage_write_failures != injected.load()) {
        fatal("brownout chaos: {} injected ENOSPC, {} counted storage "
              "failures",
              injected.load(), report.storage_write_failures);
    }
    if (resumed.cache_hits != points.size() - injected.load()) {
        fatal("brownout chaos: resume reused {} points, expected {}",
              resumed.cache_hits, points.size() - injected.load());
    }
    if (report.exitCode() != 0 || resumed.exitCode() != 0) {
        fatal("brownout chaos: sweep exits {} and {}, expected 0",
              report.exitCode(), resumed.exitCode());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip --smoke before the shared parser (it rejects unknowns).
    bool smoke = false;
    std::vector<char *> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    const BenchOptions opts = parseBenchArgs(
        static_cast<int>(passthrough.size()), passthrough.data());

    const std::vector<double> intensities =
        smoke ? std::vector<double>{0.0, 1.0}
              : std::vector<double>{0.0, 0.25, 0.5, 1.0};

    degradationTable(smoke, intensities);
    quarantineSweep(smoke, opts);
    brownoutDrill(smoke);
    return 0;
}
