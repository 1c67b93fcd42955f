/**
 * @file
 * mopac_sim: config-driven single-run simulator CLI.
 *
 * Usage:
 *   mopac_sim [key=value ...] [--config FILE]
 *
 * Prints the run's results table, then the cycle-attribution counters
 * of that run (src/sim/profile.hh: executed vs skipped cycles, core
 * ticks and fast-forward windows, scheduler passes; after restore=,
 * of the resumed part only).
 *
 * Keys (defaults in parentheses):
 *   workload   = Table-4 name or mixN        (mcf)
 *   mitigation = none|prac|mopac-c|mopac-d|mint|pride|trr|para|graphene|qprac (none)
 *   trh        = Rowhammer threshold          (500)
 *   insts      = instructions per core        (300000)
 *   warmup     = warmup instructions per core (30000)
 *   cores      = number of cores              (8)
 *   seed       = RNG seed                     (12345)
 *   nup        = true|false                   (false)
 *   rowpress   = true|false                   (false)
 *   srq        = SRQ capacity                 (16)
 *   drain      = drain-on-REF (-1 = derived)  (-1)
 *   chips      = chips per sub-channel        (4)
 *   page       = open|close|timeout           (open)
 *   ton_ns     = timeout policy tON in ns     (200)
 *   baseline   = also run the unprotected baseline and report
 *                the weighted slowdown        (false)
 *   watchdog   = forward-progress watchdog budget in cycles; a run
 *                retiring nothing for that long is aborted with the
 *                last commands listed (0 = off)    (2000000)
 *   watchdog_tail = commands listed on a watchdog trip   (16)
 *   faults.*   = fault-injection plan; see src/sim/faults.hh
 *                (faults.seed, faults.intensity, faults.<kind>,
 *                 faults.<kind>.at/.cycles/.chip)
 *   checkpoint = snapshot file to maintain; with it set, SIGINT /
 *                SIGTERM stop the run at the next safe cycle, write
 *                the snapshot, and exit with status 75 (resumable)
 *   checkpoint_every = cycles between periodic snapshots (0 = only
 *                on a stop request)
 *   restore    = snapshot file to resume from (config + workload
 *                must match the snapshot; mismatch is fatal)
 *
 * Unknown or duplicated keys are fatal.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "sim/experiment.hh"
#include "sim/faults.hh"
#include "sim/profile.hh"
#include "sim/stop.hh"

namespace
{

using namespace mopac;

MitigationKind
parseMitigation(const std::string &name)
{
    if (name == "none") return MitigationKind::kNone;
    if (name == "prac") return MitigationKind::kPracMoat;
    if (name == "mopac-c") return MitigationKind::kMopacC;
    if (name == "mopac-d") return MitigationKind::kMopacD;
    if (name == "mint") return MitigationKind::kMint;
    if (name == "pride") return MitigationKind::kPride;
    if (name == "trr") return MitigationKind::kTrr;
    if (name == "para") return MitigationKind::kPara;
    if (name == "graphene") return MitigationKind::kGraphene;
    if (name == "qprac") return MitigationKind::kQprac;
    fatal("unknown mitigation '{}'", name);
}

PagePolicy
parsePolicy(const std::string &name)
{
    if (name == "open") return PagePolicy::kOpen;
    if (name == "close") return PagePolicy::kClose;
    if (name == "timeout") return PagePolicy::kTimeout;
    fatal("unknown page policy '{}'", name);
}

void
report(const char *label, const RunResult &r, bool faulted)
{
    TextTable t(std::string("mopac_sim results: ") + label);
    t.header({"metric", "value"});
    t.row({"cycles", std::to_string(r.cycles)});
    t.row({"mean IPC", TextTable::fmt(r.meanIpc(), 4)});
    t.row({"ACTs", std::to_string(r.acts)});
    t.row({"reads", std::to_string(r.reads)});
    t.row({"writes", std::to_string(r.writes)});
    t.row({"row-buffer hit rate", TextTable::fmt(r.rbhr, 3)});
    t.row({"ACTs/bank/tREFI (APRI)", TextTable::fmt(r.apri, 2)});
    t.row({"avg read latency (ns)",
           TextTable::fmt(r.avg_read_latency_ns, 1)});
    t.row({"REFs", std::to_string(r.refs)});
    t.row({"ALERTs", std::to_string(r.alerts)});
    t.row({"RFMs", std::to_string(r.rfms)});
    t.row({"counter updates", std::to_string(r.counter_updates)});
    t.row({"SRQ insertions", std::to_string(r.srq_insertions)});
    t.row({"mitigations", std::to_string(r.mitigations)});
    t.row({"max unmitigated ACTs", std::to_string(r.max_unmitigated)});
    t.row({"TRH violations", std::to_string(r.violations)});
    if (faulted) {
        t.row({"faults injected", std::to_string(r.faults_injected)});
        t.row({"outcome", toString(classifyRun(r))});
    }
    t.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    Config conf;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--config" && i + 1 < argc) {
            conf.parseFile(argv[++i]);
        } else if (arg == "--help" || arg == "-h") {
            std::puts("usage: mopac_sim [key=value ...] [--config FILE]"
                      " (see tools/mopac_sim.cc header for keys)");
            return 0;
        } else {
            conf.parseLine(arg);
        }
    }

    SystemConfig cfg = makeConfig(
        parseMitigation(conf.getString("mitigation", "none")),
        static_cast<std::uint32_t>(conf.getUint("trh", 500)));
    cfg.insts_per_core =
        conf.getUint("insts", defaultInstsPerCore());
    cfg.warmup_insts = conf.getUint("warmup", cfg.insts_per_core / 10);
    cfg.num_cores =
        static_cast<unsigned>(conf.getUint("cores", 8));
    cfg.seed = conf.getUint("seed", 12345);
    cfg.nup = conf.getBool("nup", false);
    cfg.rowpress = conf.getBool("rowpress", false);
    cfg.srq_capacity =
        static_cast<unsigned>(conf.getUint("srq", 16));
    cfg.drain_per_ref =
        static_cast<int>(conf.getInt("drain", -1));
    cfg.geometry.chips =
        static_cast<unsigned>(conf.getUint("chips", 4));
    cfg.mc.page_policy = parsePolicy(conf.getString("page", "open"));
    cfg.mc.timeout_ton = nsToCycles(conf.getDouble("ton_ns", 200.0));
    cfg.watchdog_cycles = conf.getUint("watchdog", cfg.watchdog_cycles);
    cfg.watchdog_tail = static_cast<unsigned>(
        conf.getUint("watchdog_tail", cfg.watchdog_tail));
    cfg.faults = FaultPlan::fromConfig(conf);

    const std::string workload = conf.getString("workload", "mcf");
    const bool baseline = conf.getBool("baseline", false);
    CheckpointOptions ckpt;
    ckpt.save_path = conf.getString("checkpoint", "");
    ckpt.checkpoint_every = conf.getUint("checkpoint_every", 0);
    ckpt.restore_path = conf.getString("restore", "");
    conf.rejectUnknownKeys("mopac_sim");

    const bool faulted = cfg.faults.enabled();
    inform("running workload '{}' with mitigation '{}' at TRH {}",
           workload, toString(cfg.mitigation), cfg.trh);
    if (faulted) {
        inform("fault plan: {}", cfg.faults.summary());
    }

    RunResult result;
    if (!ckpt.save_path.empty() || !ckpt.restore_path.empty()) {
        // Checkpointed mode: SIGINT/SIGTERM request a stop at the
        // next safe cycle; the snapshot is flushed and the process
        // exits with the distinct resumable status.
        sweepstop::installSignalHandlers();
        try {
            const CheckpointedRun run =
                runWorkloadCheckpointed(cfg, workload, ckpt);
            if (!run.finished) {
                std::fprintf(stderr,
                             "mopac_sim: stopped at cycle %llu; "
                             "resume with restore=%s\n",
                             static_cast<unsigned long long>(
                                 run.stopped_at),
                             ckpt.save_path.c_str());
                return sweepstop::kResumableExit;
            }
            result = run.result;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "mopac_sim: %s\n", e.what());
            return 1;
        }
    } else {
        // tryRunWorkload so a watchdog trip / panic prints a clean
        // diagnostic (with the command-trace tail) instead of
        // aborting.
        const RunOutcome outcome = tryRunWorkload(cfg, workload);
        if (!outcome.ok) {
            std::fprintf(stderr, "mopac_sim: run %s: %s\n",
                         toString(outcome.outcome),
                         outcome.error.c_str());
            return 1;
        }
        result = outcome.result;
    }
    report(toString(cfg.mitigation).c_str(), result, faulted);
    // Where the main run's simulated cycles went.  No wall time, so
    // the output stays deterministic.
    std::fputs(profileReport(simProfile(), 0.0).c_str(), stdout);

    if (baseline && cfg.mitigation != MitigationKind::kNone) {
        SystemConfig base = cfg;
        base.mitigation = MitigationKind::kNone;
        const RunResult base_result = runWorkload(base, workload);
        report("baseline (none)", base_result, faulted);
        std::printf("weighted slowdown vs baseline: %.2f%%\n",
                    weightedSlowdown(base_result, result) * 100.0);
    }
    return 0;
}
