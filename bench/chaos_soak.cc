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
 * quarantined (with its replay id) instead of hanging the sweep --
 * and that fault_retries re-runs transiently-unlucky points.
 *
 * Part C (kWorkerKill) moves the chaos up one process level: the same
 * clean sweep runs serially on the Runner and then under the
 * serve::Supervisor while workers are SIGKILLed / SIGSTOPped
 * mid-chunk (a scripted schedule guarantees at least one of each, and
 * rate-based chaos adds more).  The supervised manifest must be
 * bit-identical to the serial one -- a worker death costs wall time,
 * never results.  A mismatch fails the bench (exit 1).
 *
 * Part D turns the deterministic syscall fault shim (serve/io.hh) on
 * the storage and transport layers, in two drills:
 *   D1  full-disk brownout: a supervised sweep with a result store
 *       while atomicWriteFile fails with injected ENOSPC and the
 *       worker pipes suffer EINTR / short writes.  Every storage
 *       failure must be tolerated and counted, the manifest must stay
 *       bit-identical to the serial run, and a post-run cache budget
 *       squeeze must evict oldest-insertion-first back under budget.
 *   D2  checkpointed preemption under EINTR / short-write pressure:
 *       scripted kPreemptPoint + kKillAtCheckpoint with the transport
 *       faults armed; the cycles-executed ledger must equal the
 *       serial total exactly (zero rework).  ENOSPC stays off here on
 *       purpose -- a failed snapshot write inside a worker surfaces
 *       as a failed point by design, so the full-disk drill and the
 *       checkpoint drill are separate experiments.
 *
 * Flags: the shared bench flags plus `--smoke` (short durations and a
 * reduced grid; what the ctest smoke run uses).
 */

#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.hh"
#include "common/serialize.hh"
#include "serve/io.hh"
#include "serve/supervisor.hh"
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
    ropts.fault_retries = 1; // Reseed once before quarantining.
    const std::vector<PointResult> results =
        Runner(ropts).run(points);

    TextTable table("chaos soak: sweep quarantine behaviour");
    table.header({"id", "config", "status", "outcome", "attempts",
                  "note"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const PointResult &r = results[i];
        std::string note = r.error;
        if (const auto cut = note.find('\n'); cut != std::string::npos) {
            note = note.substr(0, cut) + " ...";
        }
        table.row({std::to_string(r.point_id),
                   points[i].config_label, toString(r.status),
                   toString(r.outcome), std::to_string(r.attempts),
                   note});
    }
    table.print(std::cout);
}

/**
 * Canonical bytes of one point result: everything deterministic
 * (status, outcome, seed, error, attempts, full RunResult and stats),
 * with the wall-clock field -- the only legitimately nondeterministic
 * one -- zeroed before serializing.
 */
std::vector<std::uint8_t>
canonicalBytes(const PointResult &result)
{
    PointResult canon = result;
    canon.wall_seconds = 0.0;
    Serializer ser;
    savePointResult(ser, canon);
    return ser.finish(FileKind::kCacheEntry, canon.point_id);
}

/** Driver knobs of the supervised drills: three worker processes. */
RunnerOptions
poolOptions()
{
    RunnerOptions opts;
    opts.jobs = 3;
    return opts;
}

void
workerKillChaos(bool smoke)
{
    const std::uint64_t insts = smoke ? 15000 : 40000;

    // A small clean sweep (no fault plans): it has exactly one
    // correct manifest, so any divergence is the supervisor's fault.
    SweepSpec spec;
    spec.master_seed = 41;
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

    serve::SupervisorOptions sopts;
    sopts.max_strikes = 25;       // Chaos must never quarantine.
    sopts.heartbeat_sec = 0.2;
    sopts.hang_timeout_sec = 10.0; // Catches the SIGSTOPped worker.
    sopts.backoff_base_sec = 0.01;
    sopts.backoff_cap_sec = 0.05;
    sopts.chaos_kill_rate = 0.10; // Per (point, attempt) start.
    sopts.chaos_stop_rate = 0.05;
    serve::Supervisor sup(sopts);
    // The rates only kill in expectation; script one crash and one
    // hang so the smoke run provably exercises both recovery paths.
    sup.setFailSchedule({
        {{points[0].point_id, 1}, serve::FailAction::kKillWorker},
        {{points[2].point_id, 1}, serve::FailAction::kStopWorker},
    });
    const SweepReport report =
        Runner(poolOptions()).sweep(points, nullptr, nullptr, &sup);
    const serve::SupervisorStats &pool = sup.stats();

    TextTable table("chaos soak: worker-kill supervision");
    table.header({"id", "config", "workload", "status", "retries",
                  "identical"});
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const bool same = canonicalBytes(serial[i]) ==
                          canonicalBytes(report.results[i]);
        mismatches += same ? 0 : 1;
        const auto it = pool.retries.find(points[i].point_id);
        const std::size_t nretries =
            it == pool.retries.end() ? 0 : it->second.size();
        table.row({std::to_string(points[i].point_id),
                   points[i].config_label, points[i].workload,
                   toString(report.results[i].status),
                   std::to_string(nretries), same ? "yes" : "NO"});
    }
    table.note(format(
        "workers forked {}  crashed {}  hang-killed {}",
        pool.workers_forked, pool.workers_crashed,
        pool.workers_hung_killed));
    table.print(std::cout);

    if (mismatches > 0) {
        fatal("worker-kill chaos: {} of {} supervised results differ "
              "from the serial run",
              mismatches, points.size());
    }
    if (pool.workers_crashed == 0 ||
        pool.workers_hung_killed == 0) {
        fatal("worker-kill chaos: scripted failures did not fire "
              "(crashed {}, hang-killed {})",
              pool.workers_crashed, pool.workers_hung_killed);
    }
    if (report.exitCode() != 0) {
        fatal("worker-kill chaos: supervised sweep exit {} != 0",
              report.exitCode());
    }
}

/**
 * Common supervision tuning for the Part D drills: enough workers to
 * overlap points, strike budget high enough that injected pressure
 * can never quarantine, fast heartbeat/backoff so the smoke run stays
 * quick.
 */
serve::SupervisorOptions
pressureOptions()
{
    serve::SupervisorOptions sopts;
    sopts.max_strikes = 25;
    sopts.heartbeat_sec = 0.2;
    sopts.hang_timeout_sec = 20.0;
    sopts.backoff_base_sec = 0.01;
    sopts.backoff_cap_sec = 0.05;
    return sopts;
}

void
resourcePressureChaos(bool smoke)
{
    const std::uint64_t insts = smoke ? 15000 : 40000;

    // Same clean-sweep shape as Part C, but on a small bank: snapshot
    // size scales with PRAC's per-row state, and drill D2 writes a
    // snapshot every checkpoint interval.
    SweepSpec spec;
    spec.master_seed = 43;
    for (std::uint32_t trh : {500u, 1000u}) {
        SystemConfig cfg = makeConfig(MitigationKind::kMopacD, trh);
        cfg.insts_per_core = insts;
        cfg.warmup_insts = insts / 10;
        cfg.geometry.rows_per_bank = 4096;
        spec.configs.push_back(
            {"mopac-d@" + std::to_string(trh), cfg});
    }
    spec.workloads = {"mcf", "xz"};
    const std::vector<ExperimentPoint> points = spec.expand();

    RunnerOptions serial_opts;
    serial_opts.jobs = 1;
    const std::vector<PointResult> serial =
        Runner(serial_opts).run(points);
    std::uint64_t total_cycles = 0;
    std::uint64_t min_cycles = ~0ull;
    for (const PointResult &r : serial) {
        total_cycles += r.run.cycles;
        min_cycles = std::min(min_cycles, r.run.cycles);
    }

    const std::string base =
        format("/tmp/mopac_chaos_pressure_{}", ::getpid());
    std::filesystem::remove_all(base);
    serve::ensureDir(base);

    TextTable table("chaos soak: resource-pressure drills");
    table.header({"drill", "injected", "observed", "verdict"});

    // ---- D1: full-disk brownout + budgeted cache eviction --------
    {
        // The store is set up before the shim arms, so the directory
        // scaffolding itself cannot fault.
        ResultStore store(base + "/cache");
        serve::Supervisor sup(pressureOptions());

        serve::IoFaultConfig shim;
        shim.seed = 0xbeef;
        shim.enospc_rate = 0.25;
        shim.eintr_rate = 0.20;
        shim.short_write_rate = 0.20;
        serve::setIoFaultShim(shim);
        const SweepReport report =
            Runner(poolOptions()).sweep(points, &store, nullptr, &sup);
        const serve::IoFaultStats stats = serve::ioFaultShimStats();
        serve::setIoFaultShim(serve::IoFaultConfig{});

        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < points.size(); ++i) {
            mismatches += canonicalBytes(serial[i]) ==
                                  canonicalBytes(report.results[i])
                              ? 0
                              : 1;
        }
        table.row({"D1 brownout",
                   format("enospc {} eintr {} short {}", stats.enospc,
                          stats.eintr, stats.short_writes),
                   format("storage failures {}",
                          report.storage_write_failures),
                   mismatches == 0 ? "identical" : "MISMATCH"});
        if (mismatches > 0) {
            fatal("pressure chaos: {} of {} brownout results differ "
                  "from the serial run",
                  mismatches, points.size());
        }
        if (report.storage_write_failures == 0 || stats.enospc == 0) {
            fatal("pressure chaos: ENOSPC injection never fired "
                  "(failures {}, injected {})",
                  report.storage_write_failures, stats.enospc);
        }
        if (report.exitCode() != 0) {
            fatal("pressure chaos: brownout sweep exit {} != 0",
                  report.exitCode());
        }

        // Budget squeeze: halve the store's footprint allowance and
        // require deterministic oldest-first eviction back under it.
        const std::uint64_t before = store.totalBytes();
        if (before == 0) {
            fatal("pressure chaos: every store write failed; the "
                  "eviction drill has nothing to evict");
        }
        const std::uint64_t budget = before / 2;
        store.setBudget(budget);
        table.row({"D1 budget squeeze",
                   format("budget {} B", budget),
                   format("{} -> {} B, {} evicted", before,
                          store.totalBytes(), store.evictions()),
                   store.totalBytes() <= budget ? "within budget"
                                                : "OVER"});
        if (store.evictions() == 0 || store.totalBytes() > budget) {
            fatal("pressure chaos: budget squeeze left {} B against "
                  "a {} B budget ({} evictions)",
                  store.totalBytes(), budget, store.evictions());
        }
    }

    // ---- D2: checkpointed preemption under transport pressure ----
    {
        serve::SupervisorOptions sopts = pressureOptions();
        sopts.checkpoint_every =
            std::max<std::uint64_t>(1, min_cycles / 3);
        sopts.checkpoint_dir = base + "/ckpt";
        serve::Supervisor sup(sopts);
        sup.setFailSchedule({
            {{points[1].point_id, 1}, serve::FailAction::kPreemptPoint},
            {{points[3].point_id, 1},
             serve::FailAction::kKillAtCheckpoint},
        });

        serve::IoFaultConfig shim;
        shim.seed = 0xd25c;
        shim.eintr_rate = 0.25;
        shim.short_write_rate = 0.25;
        serve::setIoFaultShim(shim);
        const SweepReport report =
            Runner(poolOptions()).sweep(points, nullptr, nullptr, &sup);
        const serve::SupervisorStats &pool = sup.stats();
        const serve::IoFaultStats stats = serve::ioFaultShimStats();
        serve::setIoFaultShim(serve::IoFaultConfig{});

        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < points.size(); ++i) {
            mismatches += canonicalBytes(serial[i]) ==
                                  canonicalBytes(report.results[i])
                              ? 0
                              : 1;
        }
        // Preemption and a checkpoint-rendezvous kill both resume
        // from the exact snapshot cycle, so the ledger of simulated
        // cycles across every attempt equals the serial total: the
        // drill proves zero rework, not just identical results.
        const bool exact_ledger =
            pool.cycles_executed == total_cycles;
        table.row({"D2 preempt+ckpt",
                   format("eintr {} short {}", stats.eintr,
                          stats.short_writes),
                   format("preempted {} crashed {} ledger {}/{}",
                          pool.points_preempted,
                          pool.workers_crashed,
                          pool.cycles_executed, total_cycles),
                   mismatches == 0 && exact_ledger ? "zero rework"
                                                   : "REWORK"});
        if (mismatches > 0) {
            fatal("pressure chaos: {} of {} preempted results differ "
                  "from the serial run",
                  mismatches, points.size());
        }
        if (pool.points_preempted == 0 ||
            pool.workers_crashed == 0) {
            fatal("pressure chaos: scripted preemption did not fire "
                  "(preempted {}, crashed {})",
                  pool.points_preempted, pool.workers_crashed);
        }
        if (!exact_ledger) {
            fatal("pressure chaos: cycles ledger {} != serial total "
                  "{} (checkpoint resume lost or redid work)",
                  pool.cycles_executed, total_cycles);
        }
        if (report.exitCode() != 0) {
            fatal("pressure chaos: preemption sweep exit {} != 0",
                  report.exitCode());
        }
    }

    table.print(std::cout);
    std::filesystem::remove_all(base);
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
    workerKillChaos(smoke);
    resourcePressureChaos(smoke);
    return mopac::bench::finalExitCode();
}
