/**
 * @file
 * Shared plumbing for the paper-reproduction bench programs
 * (mopac_exhibits and chaos_soak).
 *
 * Every exhibit prints the same rows/series as its paper counterpart.
 * Simulation horizon defaults to 200K instructions per core
 * (MOPAC_SIM_SCALE / MOPAC_SIM_INSTS rescale it); EXPERIMENTS.md
 * records the fidelity implications.
 *
 * Each exhibit is data (Exhibit: a name, a declare function that
 * queues its cells into the one SlowdownLab, a render function that
 * prints its table from the lab's results); the lab runs the cells
 * of every selected exhibit once, as one sweep on the parallel
 * sim::Runner.  `--jobs N` picks the worker count and `--replay ID`
 * re-runs one point single-threaded with a full stats dump;
 * per-point results are bit-identical at any job count (see
 * EXPERIMENTS.md, "Parallel sweeps and determinism").
 */

#ifndef MOPAC_BENCH_BENCH_UTIL_HH
#define MOPAC_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/format.hh"
#include "common/mathutil.hh"
#include "common/table.hh"
#include "sim/attack.hh"
#include "sim/experiment.hh"
#include "sim/result_store.hh"
#include "sim/runner.hh"
#include "sim/stop.hh"
#include "sim/sweep.hh"
#include "workload/spec.hh"

namespace mopac::bench
{

/**
 * Command-line options shared by the bench programs.
 *
 *   --jobs N     worker threads for the sweep (default: MOPAC_JOBS
 *                env var, else hardware concurrency)
 *   --replay ID  re-run one experiment point single-threaded with a
 *                full stats dump, then exit (point ids are printed
 *                when a point fails, or enumerable via --list-points)
 *   --list-points  print the expanded point table, then exit
 *   --journal DIR  put each finished point into the result store at
 *                DIR (crash-safe); a first SIGINT/SIGTERM stops at a
 *                point boundary and exits 75 (resumable)
 *   --resume DIR  alias for --journal: points whose result DIR holds
 *                are skipped and only the remainder runs
 */
struct BenchOptions
{
    unsigned jobs = 0;
    std::int64_t replay = -1;
    bool list_points = false;
    /** Result-store directory ("" = plain, non-resumable sweep). */
    std::string journal;
    /** Exhibit names given as positional arguments, in order. */
    std::vector<std::string> exhibits;
};

/**
 * Parse the shared bench flags; fatal() on malformed input.  A
 * positional argument must be one of @p exhibits (the names a driver
 * accepts, listed by --help); with none accepted, it is an error.
 */
inline BenchOptions
parseBenchArgs(int argc, char **argv,
               const std::vector<std::string> &exhibits = {})
{
    auto number = [](const std::string &flag,
                     const std::string &text) -> std::uint64_t {
        char *end = nullptr;
        const std::uint64_t v =
            std::strtoull(text.c_str(), &end, 10);
        // strtoull silently negates "-5"; require plain digits.
        if (text.empty() || !std::isdigit(static_cast<unsigned char>(text.front())) ||
            end == nullptr || *end != '\0') {
            fatal("{} expects a non-negative number, got '{}'", flag,
                  text);
        }
        return v;
    };
    BenchOptions opts;
    if (const char *env = std::getenv("MOPAC_JOBS")) {
        opts.jobs =
            static_cast<unsigned>(number("MOPAC_JOBS", env));
    }
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const std::string &flag) -> std::string {
            if (arg.size() > flag.size() &&
                arg.compare(0, flag.size() + 1, flag + "=") == 0) {
                return arg.substr(flag.size() + 1);
            }
            if (i + 1 >= argc) {
                fatal("{} requires a value", flag);
            }
            return argv[++i];
        };
        if (arg == "--jobs" || arg.rfind("--jobs=", 0) == 0) {
            opts.jobs = static_cast<unsigned>(
                number("--jobs", value("--jobs")));
        } else if (arg == "--replay" ||
                   arg.rfind("--replay=", 0) == 0) {
            opts.replay = static_cast<std::int64_t>(
                number("--replay", value("--replay")));
        } else if (arg == "--list-points") {
            opts.list_points = true;
        } else if (arg == "--journal" ||
                   arg.rfind("--journal=", 0) == 0) {
            opts.journal = value("--journal");
        } else if (arg == "--resume" ||
                   arg.rfind("--resume=", 0) == 0) {
            opts.journal = value("--resume");
        } else if (arg == "--help" || arg == "-h") {
            std::string names;
            for (const std::string &name : exhibits) {
                names += " " + name;
            }
            std::printf("usage: %s [--jobs N] [--replay ID] "
                        "[--list-points] [--journal DIR] "
                        "[--resume DIR]%s\n",
                        argv[0], names.empty() ? "" : " [EXHIBIT ...]");
            if (!names.empty()) {
                std::printf("exhibits:%s\n", names.c_str());
            }
            std::exit(0);
        } else if (std::find(exhibits.begin(), exhibits.end(), arg) !=
                   exhibits.end()) {
            opts.exhibits.push_back(arg);
        } else {
            fatal("unknown bench argument '{}'", arg);
        }
    }
    return opts;
}

/**
 * Workload subset used by the sensitivity sweeps (Figs 12, 13, 17,
 * 18, 19; Table 15): a cross-section of streaming, latency-bound,
 * and hot-row-heavy behaviour.  The headline figures use all 23.
 */
inline std::vector<std::string>
sensitivitySubset()
{
    return {"bwaves", "parest", "mcf",      "omnetpp",
            "xz",     "roms",   "masstree", "add"};
}

/**
 * Build a bench config for one mitigation/threshold, at the bench
 * horizon of 200K instructions per core (MOPAC_SIM_SCALE /
 * MOPAC_SIM_INSTS rescale it).
 */
inline SystemConfig
benchConfig(MitigationKind kind, std::uint32_t trh)
{
    SystemConfig cfg = makeConfig(kind, trh);
    cfg.insts_per_core = defaultInstsPerCore(200000);
    cfg.warmup_insts = cfg.insts_per_core / 10;
    return cfg;
}

/**
 * The process exit code every bench program returns from main(): its
 * sweep's outcome per the shared map in sim/stop.hh (0 clean, 65
 * VIOLATED, 70 HUNG, 74 quarantined; the most severe wins), so
 * wrappers and CI can triage a finished run without parsing its
 * report.  runBenchPoints() sets it.
 */
inline int &
finalExitCode()
{
    static int code = 0;
    return code;
}

/**
 * Execute @p points on the parallel Runner, honoring the shared bench
 * flags: `--list-points` prints the expanded table and exits,
 * `--replay ID` re-runs one point inline with a stats dump and exits,
 * `--jobs` picks the worker count.  Failed / timed-out points are
 * quarantined and reported (with their replay id and seed) instead of
 * aborting the sweep.
 */
inline std::vector<PointResult>
runBenchPoints(const std::vector<ExperimentPoint> &points,
               const BenchOptions &opts)
{
    if (opts.list_points) {
        TextTable table("experiment points");
        table.header({"id", "config", "workload", "seed"});
        for (const ExperimentPoint &p : points) {
            table.row({std::to_string(p.point_id), p.config_label,
                       p.workload, std::to_string(p.cfg.seed)});
        }
        table.print(std::cout);
        std::exit(0);
    }
    if (opts.replay >= 0) {
        const auto id = static_cast<std::uint64_t>(opts.replay);
        if (id >= points.size()) {
            fatal("--replay {}: this sweep has only {} points",
                  id, points.size());
        }
        const ExperimentPoint &point = points[id];
        inform("replaying point {}: {} / {} (seed {})", id,
               point.config_label, point.workload, point.cfg.seed);
        const PointResult result = Runner::replay(point);
        inform("point {} finished: {} ({}) in {:.2f}s", id,
               toString(result.status), toString(result.outcome),
               result.wall_seconds);
        if (!result.error.empty()) {
            std::cout << "error: " << result.error << "\n";
        }
        // A crashed point has no stats; a kFaulted point whose run
        // completed (e.g. VIOLATED) dumps them like kOk.
        if (result.status != PointStatus::kFailed) {
            result.stats.dump(std::cout);
        }
        std::exit(0);
    }

    RunnerOptions ropts;
    ropts.jobs = opts.jobs;

    std::vector<PointResult> results;
    if (!opts.journal.empty()) {
        // Journaled (resumable) sweep: finished points come from the
        // result store, new ones are put atomically, and a signal
        // pauses at the next point boundary with the resumable exit
        // status.
        sweepstop::installSignalHandlers();
        SweepReport sweep;
        std::uint64_t healed = 0;
        try {
            ResultStore store(opts.journal);
            sweep = Runner(ropts).sweep(points, &store);
            healed = store.healed();
        } catch (const SerializeError &e) {
            fatal("journal {}: {}", opts.journal, e.what());
        }
        const SweepCounts counts = sweep.counts();
        if (healed > 0) {
            warn("journal {}: {} unreadable entries (corrupt or an "
                 "older format) renamed *.corrupt; their points re-ran",
                 opts.journal, healed);
        }
        if (counts.cached > 0) {
            inform("journal {}: reused {} finished points, ran {}",
                   opts.journal, counts.cached,
                   counts.total - counts.cached - counts.pending);
        }
        if (sweep.stopped) {
            warn("sweep interrupted: {} points pending -- resume "
                 "with --resume {}",
                 counts.pending, opts.journal);
            std::exit(sweepstop::kResumableExit);
        }
        results = std::move(sweep.results);
    } else {
        results = Runner(ropts).run(points);
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
        const PointResult &r = results[i];
        if (r.status != PointStatus::kOk) {
            warn("point {} ({} / {}) {}: {} -- replay with "
                 "--replay {} (seed {})",
                 r.point_id, points[i].config_label,
                 points[i].workload, toString(r.status), r.error,
                 r.point_id, r.seed);
        }
    }
    finalExitCode() = sweepExitCode(results);
    return results;
}

/** Thrown by SlowdownLab when a queued cell has no OK result. */
struct MissingCell : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * benchConfig(kind, trh) labelled "kind@trh", plus " detail" when
 * @p detail is set; exhibits name in it the fields they vary
 * ("srq=8", "tON=100ns"), so every cell of a sweep reads apart.
 */
inline NamedConfig
benchCell(MitigationKind kind, std::uint32_t trh,
          const std::string &detail = "")
{
    return {toString(kind) + "@" + std::to_string(trh) +
                (detail.empty() ? "" : " " + detail),
            benchConfig(kind, trh)};
}

/** The default baseline cell: no mitigation, T_RH 500. */
inline NamedConfig
baselineCell()
{
    return benchCell(MitigationKind::kNone, 500);
}

/**
 * One deduplicated sweep shared by every exhibit of a process.
 *
 * Exhibits queue() their (config x workload) cells and the baselines
 * they pair with; execute() runs every queued point as one sweep on
 * the parallel Runner, a cell two exhibits share (same
 * configSignature and workload) once, labelled by the first exhibit
 * that queued it.  slowdown() / run() then read the results.  Reading
 * a cell nobody queued is a driver bug (panic); reading a queued cell
 * without an OK result throws MissingCell, naming the cell and its
 * replay id.
 */
class SlowdownLab
{
  public:
    /**
     * Queue every (cell, workload) pair over the seeds slowdown()
     * averages, each paired with a run of @p base (an unprotected
     * baseline) on the same seed.
     */
    void
    queue(const std::vector<NamedConfig> &cells,
          const std::vector<std::string> &workloads,
          const NamedConfig &base = baselineCell())
    {
        for (const std::string &name : workloads) {
            for (const NamedConfig &cell : cells) {
                for (std::uint64_t seed : seedsFor(cell.cfg, name)) {
                    addPoint(cell, seed, name);
                    addPoint(base, seed, name);
                }
            }
        }
    }

    /**
     * Queue exactly the given (cell x workload) runs with no baseline
     * pairing -- for exhibits that read raw RunResults (or pair
     * baselines themselves, e.g. per-geometry baselines).
     */
    void
    queueRuns(const std::vector<NamedConfig> &cells,
              const std::vector<std::string> &workloads)
    {
        for (const std::string &name : workloads) {
            for (const NamedConfig &cell : cells) {
                addPoint(cell, cell.cfg.seed, name);
            }
        }
    }

    /** Run every queued point as one sweep (see runBenchPoints). */
    void
    execute(const BenchOptions &opts)
    {
        const std::vector<PointResult> results =
            runBenchPoints(points_, opts);
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (results[i].status == PointStatus::kOk) {
                results_.emplace(cacheKey(points_[i].cfg,
                                          points_[i].workload),
                                 results[i].run);
            }
        }
    }

    /**
     * Slowdown of @p cfg on @p workload vs @p base.
     *
     * The STREAM kernels are chaotic (8 identical strided cores
     * produce phase-sensitive bank conflicts, +/- a few percent per
     * trajectory), so their slowdowns are averaged over three seeds;
     * all other workloads use one paired run.
     */
    double
    slowdown(const SystemConfig &cfg, const std::string &workload,
             const SystemConfig &base = baselineCell().cfg)
    {
        double sum = 0.0;
        const std::vector<std::uint64_t> seeds =
            seedsFor(cfg, workload);
        for (std::uint64_t seed : seeds) {
            SystemConfig test_cfg = cfg;
            SystemConfig base_cfg = base;
            test_cfg.seed = base_cfg.seed = seed;
            sum += weightedSlowdown(run(base_cfg, workload),
                                    run(test_cfg, workload));
        }
        return sum / static_cast<double>(seeds.size());
    }

    /** The paper's "average": mean slowdown over @p workloads. */
    double
    average(const SystemConfig &cfg,
            const std::vector<std::string> &workloads,
            const SystemConfig &base = baselineCell().cfg)
    {
        std::vector<double> series;
        for (const std::string &name : workloads) {
            series.push_back(slowdown(cfg, name, base));
        }
        return mean(series);
    }

    /**
     * The OK run of a queued cell.  A cell nobody queued is a driver
     * bug; a queued cell without an OK result was quarantined (and
     * reported) by the sweep, so its exhibit cannot print.
     */
    const RunResult &
    run(const SystemConfig &cfg, const std::string &workload) const
    {
        const std::string key = cacheKey(cfg, workload);
        const auto it = results_.find(key);
        if (it != results_.end()) {
            return it->second;
        }
        const auto queued = queued_.find(key);
        if (queued == queued_.end()) {
            panic("SlowdownLab: cell {}@{} / {} was never queued",
                  toString(cfg.mitigation), cfg.trh, workload);
        }
        const ExperimentPoint &point = points_[queued->second];
        throw MissingCell(format(
            "cell {} / {} has no OK result -- replay with --replay {}",
            point.config_label, workload, point.point_id));
    }

  private:
    /** Seeds slowdown() averages over for this (config, workload). */
    static std::vector<std::uint64_t>
    seedsFor(const SystemConfig &cfg, const std::string &workload)
    {
        const bool streaming = workload.rfind("mix", 0) != 0 &&
                               findWorkload(workload).streaming;
        if (streaming) {
            return {cfg.seed, cfg.seed + 777, cfg.seed + 1555};
        }
        return {cfg.seed};
    }

    static std::string
    cacheKey(const SystemConfig &cfg, const std::string &workload)
    {
        return configSignature(cfg) + "#" + workload;
    }

    /** Append a point unless an identical cell is already queued. */
    void
    addPoint(const NamedConfig &cell, std::uint64_t seed,
             const std::string &workload)
    {
        ExperimentPoint point;
        point.point_id = points_.size();
        point.config_label = cell.label;
        point.workload = workload;
        point.cfg = cell.cfg;
        point.cfg.seed = seed;
        if (queued_.emplace(cacheKey(point.cfg, workload),
                            point.point_id)
                .second) {
            points_.push_back(std::move(point));
        }
    }

    std::vector<ExperimentPoint> points_;
    /** Queued cells and their point ids (the --replay handles). */
    std::map<std::string, std::uint64_t> queued_;
    std::map<std::string, RunResult> results_;
};

/** One paper exhibit (or ablation) of mopac_exhibits. */
struct Exhibit
{
    /** Command-line name. */
    const char *name;
    /** Queue the simulated cells; nullptr for an exhibit with none. */
    void (*declare)(SlowdownLab &lab);
    /** Print the exhibit from the lab's results. */
    void (*render)(SlowdownLab &lab, std::ostream &os);
};

/**
 * ACT throughput (per us, over 1 ms) under @p cfg of the 64-bank
 * multi-bank attack or, with @p srq_fill, of the 48-row SRQ-fill
 * attack on one bank (Tables 9 and 10).
 */
inline double
attackThroughput(const SystemConfig &cfg, bool srq_fill = false)
{
    AttackRunner runner(cfg);
    const AddressMap &map = runner.system().addressMap();
    AttackPattern p = srq_fill ? makeManySidedAttack(map, 0, 0, 48, 3000)
                               : makeMultiBankAttack(map, 64, 1000);
    return runner.run(p, nsToCycles(1.0e6), 8).acts_per_us;
}

/** A threshold and the paper's values at it (one table row). */
struct PaperRef
{
    std::uint32_t trh;
    const char *paper;
};

/**
 * A per-workload slowdown table (Figures 2, 9 and 11): one row per
 * workload with one column per cell, then the column averages.
 */
inline void
perWorkloadTable(SlowdownLab &lab, std::ostream &os, TextTable table,
                 const std::vector<NamedConfig> &cells)
{
    std::vector<std::vector<double>> series(cells.size());
    for (const std::string &name : allWorkloadNames()) {
        std::vector<std::string> row{name};
        for (std::size_t i = 0; i < cells.size(); ++i) {
            series[i].push_back(lab.slowdown(cells[i].cfg, name));
            row.push_back(TextTable::pct(series[i].back(), 1));
        }
        table.row(row);
    }
    std::vector<std::string> average{"average"};
    for (const std::vector<double> &column : series) {
        average.push_back(TextTable::pct(mean(column), 1));
    }
    table.separator();
    table.row(average);
    table.print(os);
}

/** One row of a sensitivity table: its cells and the paper's values. */
struct GridRow
{
    std::string label;
    /** One cell per column, each vs @c base. */
    std::vector<NamedConfig> cells;
    std::string paper;
    NamedConfig base = baselineCell();
};

/** Queue every cell of @p rows over the sensitivity subset. */
inline void
queueGrid(SlowdownLab &lab, const std::vector<GridRow> &rows)
{
    for (const GridRow &row : rows) {
        lab.queue(row.cells, sensitivitySubset(), row.base);
    }
}

/**
 * A sensitivity table (Figures 12, 13, 17, 18; Table 15): per row its
 * label, each cell's average slowdown over the sensitivity subset and
 * the paper's values.
 */
inline void
gridTable(SlowdownLab &lab, std::ostream &os, TextTable table,
          const std::vector<GridRow> &rows)
{
    for (const GridRow &row : rows) {
        std::vector<std::string> cells{row.label};
        for (const NamedConfig &cell : row.cells) {
            cells.push_back(TextTable::pct(
                lab.average(cell.cfg, sensitivitySubset(),
                            row.base.cfg),
                1));
        }
        cells.push_back(row.paper);
        table.row(cells);
    }
    table.print(os);
}

} // namespace mopac::bench

#endif // MOPAC_BENCH_BENCH_UTIL_HH
