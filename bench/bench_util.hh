/**
 * @file
 * Shared plumbing for the paper-reproduction bench binaries.
 *
 * Every binary prints the same rows/series as its paper exhibit.
 * Simulation horizon defaults to 200K instructions per core
 * (MOPAC_SIM_SCALE / MOPAC_SIM_INSTS rescale it); EXPERIMENTS.md
 * records the fidelity implications.
 *
 * The simulation-driven drivers all funnel through SlowdownLab, which
 * executes its sweep on the parallel sim::Runner: declare the full
 * (config x workload) grid with precompute(), then read slowdowns out
 * of the cache.  `--jobs N` picks the worker count and `--replay ID`
 * re-runs one point single-threaded with a full stats dump; per-point
 * results are bit-identical at any job count (see EXPERIMENTS.md,
 * "Parallel sweeps and determinism").
 */

#ifndef MOPAC_BENCH_BENCH_UTIL_HH
#define MOPAC_BENCH_BENCH_UTIL_HH

#include <cctype>
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/mathutil.hh"
#include "common/table.hh"
#include "sim/experiment.hh"
#include "sim/result_store.hh"
#include "sim/runner.hh"
#include "sim/stop.hh"
#include "workload/spec.hh"

namespace mopac::bench
{

/** Default per-core instruction budget for bench runs. */
inline std::uint64_t
benchInsts()
{
    return defaultInstsPerCore(200000);
}

/**
 * Command-line options shared by every bench driver.
 *
 *   --jobs N     worker threads for the sweep (default: MOPAC_JOBS
 *                env var, else hardware concurrency)
 *   --replay ID  re-run one experiment point single-threaded with a
 *                full stats dump, then exit (point ids are printed
 *                when a point fails, or enumerable via --list-points)
 *   --list-points  print the expanded point table, then exit
 *   --journal DIR  put each finished point into the result store at
 *                DIR (crash-safe);
 *                SIGINT/SIGTERM pause the sweep at the next point
 *                boundary and exit with status 75 (resumable)
 *   --resume DIR  alias for --journal: points whose result DIR holds
 *                are skipped and only the remainder runs
 *   --drain-deadline SEC  with --journal: seconds in-flight points
 *                get to finish after a stop request before a hard
 *                abort abandons them (default 30; 0 = wait forever)
 */
struct BenchOptions
{
    unsigned jobs = 0;
    std::int64_t replay = -1;
    bool list_points = false;
    /** Result-store directory ("" = plain, non-resumable sweep). */
    std::string journal;
    double drain_deadline_sec = 30.0;
};

/** Parse the shared bench flags; fatal() on malformed input. */
inline BenchOptions
parseBenchArgs(int argc, char **argv)
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
        } else if (arg == "--drain-deadline" ||
                   arg.rfind("--drain-deadline=", 0) == 0) {
            const std::string text = value("--drain-deadline");
            char *end = nullptr;
            opts.drain_deadline_sec = std::strtod(text.c_str(), &end);
            if (end == nullptr || *end != '\0' ||
                opts.drain_deadline_sec < 0.0) {
                fatal("--drain-deadline expects a non-negative "
                      "number of seconds, got '{}'", text);
            }
        } else if (arg == "--help" || arg == "-h") {
            std::puts("usage: <bench> [--jobs N] [--replay ID] "
                      "[--list-points] [--journal DIR] "
                      "[--resume DIR] [--drain-deadline SEC]");
            std::exit(0);
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

/** Build a bench config for one mitigation/threshold. */
inline SystemConfig
benchConfig(MitigationKind kind, std::uint32_t trh)
{
    SystemConfig cfg = makeConfig(kind, trh);
    cfg.insts_per_core = benchInsts();
    cfg.warmup_insts = cfg.insts_per_core / 10;
    return cfg;
}

namespace detail
{

/** Severity rank of an exit code (sim/stop.hh map); unknown = worst. */
inline int
exitSeverity(int code)
{
    switch (code) {
      case 0: return 0;
      case sweepstop::kResumableExit: return 1;
      case sweepstop::kQuarantinedExit: return 2;
      case sweepstop::kHungExit: return 3;
      case sweepstop::kViolatedExit: return 4;
    }
    return 5;
}

/** Sticky worst exit code of every sweep this process ran. */
inline int &
worstExitCode()
{
    static int code = 0;
    return code;
}

} // namespace detail

/**
 * Record a sweep's exit code; the worst one across all sweeps of the
 * process becomes finalExitCode().  runBenchPoints() calls this
 * automatically; drivers that run the Runner directly (chaos_soak)
 * call it for the sweeps that are supposed to be clean.
 */
inline void
noteSweepExit(int code)
{
    if (detail::exitSeverity(code) >
        detail::exitSeverity(detail::worstExitCode())) {
        detail::worstExitCode() = code;
    }
}

/**
 * The process exit code every bench driver returns from main(): the
 * worst sweep outcome per the shared map in sim/stop.hh (0 clean, 65
 * VIOLATED, 70 HUNG, 74 quarantined, 75 interrupted-resumable), so
 * wrappers and CI can triage a finished driver without parsing its
 * report.
 */
inline int
finalExitCode()
{
    return detail::worstExitCode();
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
        // A crashed point has no stats; a kFaulted point whose last
        // attempt completed (e.g. VIOLATED) dumps them like kOk.
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
        ropts.drain_deadline_sec = opts.drain_deadline_sec;
        SweepReport sweep;
        try {
            ResultStore store(opts.journal);
            sweep = Runner(ropts).sweep(points, &store);
        } catch (const SerializeError &e) {
            fatal("journal {}: {}", opts.journal, e.what());
        }
        const SweepCounts counts = sweep.counts();
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
    noteSweepExit(sweepExitCode(results));
    return results;
}

/**
 * Runs workloads under test configs and caches the matching baseline
 * runs, so sweeps that share a baseline do not re-simulate it.
 *
 * Call precompute() with the full grid first: it expands every
 * (config, workload, seed) cell -- plus the baselines they pair with
 * -- into sim::ExperimentPoints, executes them on the parallel
 * Runner, and fills the cache.  slowdown() / baseline() then read the
 * cache; any cell missed by precompute() falls back to a serial run,
 * so partial precomputation degrades gracefully instead of failing.
 */
class SlowdownLab
{
  public:
    /** @param base_template Baseline config (mitigation forced off). */
    explicit SlowdownLab(SystemConfig base_template,
                         BenchOptions opts = {})
        : base_(std::move(base_template)), opts_(opts)
    {
        base_.mitigation = MitigationKind::kNone;
    }

    /**
     * Expand and execute the full sweep grid in parallel.  Failed or
     * timed-out points are quarantined: they are reported with their
     * point id and seed (for `--replay`) and their cells fall back to
     * serial runs on first use.
     */
    void
    precompute(const std::vector<SystemConfig> &cfgs,
               const std::vector<std::string> &workloads)
    {
        std::vector<ExperimentPoint> points;
        for (const std::string &name : workloads) {
            for (const SystemConfig &cfg : cfgs) {
                for (std::uint64_t seed : seedsFor(cfg, name)) {
                    SystemConfig test_cfg = cfg;
                    test_cfg.seed = seed;
                    addPoint(points, test_cfg, name);
                    SystemConfig base_cfg = base_;
                    base_cfg.seed = seed;
                    addPoint(points, base_cfg, name);
                }
            }
        }
        execute(points);
    }

    /**
     * Like precompute(), but runs exactly the given (config x
     * workload) cells with no automatic baseline pairing -- for
     * drivers that consume raw RunResults (or pair baselines
     * themselves, e.g. per-geometry baselines).
     */
    void
    precomputeRuns(const std::vector<SystemConfig> &cfgs,
                   const std::vector<std::string> &workloads)
    {
        std::vector<ExperimentPoint> points;
        for (const std::string &name : workloads) {
            for (const SystemConfig &cfg : cfgs) {
                addPoint(points, cfg, name);
            }
        }
        execute(points);
    }

    /** Baseline result for @p workload at the template seed. */
    const RunResult &
    baseline(const std::string &workload)
    {
        return baseline(workload, base_.seed);
    }

    /**
     * Slowdown of @p cfg on @p workload vs the cached baseline.
     *
     * The STREAM kernels are chaotic (8 identical strided cores
     * produce phase-sensitive bank conflicts, +/- a few percent per
     * trajectory), so their slowdowns are averaged over three seeds;
     * all other workloads use one paired run.
     */
    double
    slowdown(const SystemConfig &cfg, const std::string &workload)
    {
        double sum = 0.0;
        const std::vector<std::uint64_t> seeds =
            seedsFor(cfg, workload);
        for (std::uint64_t seed : seeds) {
            SystemConfig test_cfg = cfg;
            test_cfg.seed = seed;
            const RunResult &test = cachedRun(test_cfg, workload);
            sum += weightedSlowdown(baseline(workload, seed), test);
        }
        return sum / static_cast<double>(seeds.size());
    }

    const SystemConfig &baseConfig() const { return base_; }

    /** Merged per-point stats of the last precompute() sweep. */
    const StatSnapshot &mergedStats() const { return merged_stats_; }

    /**
     * Raw run of @p cfg on @p workload: from the precomputed cache
     * when available, serial fallback otherwise.
     */
    const RunResult &
    run(const SystemConfig &cfg, const std::string &workload)
    {
        return cachedRun(cfg, workload);
    }

  private:
    /** Run queued points through the shared bench runner path. */
    void
    execute(const std::vector<ExperimentPoint> &points)
    {
        const std::vector<PointResult> results =
            runBenchPoints(points, opts_);
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (results[i].status == PointStatus::kOk) {
                results_.emplace(cacheKey(points[i].cfg,
                                          points[i].workload),
                                 results[i].run);
            }
        }
        merged_stats_ = Runner::mergeStats(results);
    }
    /** Seeds slowdown() averages over for this (config, workload). */
    std::vector<std::uint64_t>
    seedsFor(const SystemConfig &cfg, const std::string &workload) const
    {
        const bool streaming = workload.rfind("mix", 0) != 0 &&
                               findWorkload(workload).streaming;
        if (streaming) {
            return {cfg.seed, cfg.seed + 777, cfg.seed + 1555};
        }
        return {cfg.seed};
    }

    std::string
    cacheKey(const SystemConfig &cfg, const std::string &workload) const
    {
        return configSignature(cfg) + "#" + workload;
    }

    /** Append a point unless an identical cell is already queued. */
    void
    addPoint(std::vector<ExperimentPoint> &points,
             const SystemConfig &cfg, const std::string &workload)
    {
        const std::string key = cacheKey(cfg, workload);
        if (!queued_.insert(key).second) {
            return;
        }
        ExperimentPoint point;
        point.point_id = points.size();
        point.config_label = toString(cfg.mitigation) + "@" +
                             std::to_string(cfg.trh);
        point.workload = workload;
        point.cfg = cfg;
        points.push_back(std::move(point));
    }

    /** Cache lookup with a serial-run fallback. */
    const RunResult &
    cachedRun(const SystemConfig &cfg, const std::string &workload)
    {
        const std::string key = cacheKey(cfg, workload);
        auto it = results_.find(key);
        if (it == results_.end()) {
            it = results_.emplace(key, runWorkload(cfg, workload))
                     .first;
        }
        return it->second;
    }

    /** Baseline for a specific seed (cached). */
    const RunResult &
    baseline(const std::string &workload, std::uint64_t seed)
    {
        SystemConfig cfg = base_;
        cfg.seed = seed;
        return cachedRun(cfg, workload);
    }

    SystemConfig base_;
    BenchOptions opts_;
    std::set<std::string> queued_;
    std::map<std::string, RunResult> results_;
    StatSnapshot merged_stats_;
};

/** Arithmetic mean of per-workload slowdowns (the paper's "average"). */
inline double
meanSlowdown(const std::vector<double> &xs)
{
    return mean(xs);
}

} // namespace mopac::bench

#endif // MOPAC_BENCH_BENCH_UTIL_HH
