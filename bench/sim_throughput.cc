/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: host
 * throughput of the end-to-end system loop, the attack harness, and
 * the hot analytic kernels.  Not a paper exhibit -- this guards the
 * simulator's own performance.
 *
 * Beyond the google-benchmark suite, three custom modes record and
 * gate the simulator's performance trajectory (BENCH_throughput.json,
 * schema mopac-bench-throughput-v2):
 *
 *   --emit-trajectory[=PATH] [--repeats N]
 *       Measure host throughput (simulated cycles/sec, insts/sec) of
 *       both run-loop engines over every mitigation kind plus an
 *       idle-heavy single-core pointer chase, and write the JSON
 *       trajectory (default: BENCH_throughput.json in the cwd).
 *       Every point is timed N times (default 5) with the engines
 *       interleaved tick/event/tick/event...; the recorded wall time
 *       is the mean of the fastest quartile of repeats, which
 *       suppresses host noise (cron jobs, turbo transitions) far
 *       better than a single shot.  The
 *       file records the repeat count and a per-point FNV-1a hash of
 *       configSignature() + workload, so a stale baseline measured
 *       against a different matrix is detected instead of silently
 *       compared.
 *
 *   --check-trajectory PATH [--tolerance F]
 *       Re-measure the same matrix and compare *ratios only* against
 *       the committed baseline -- never absolute wall seconds, so the
 *       gate is insensitive to absolute machine speed.  Each measured
 *       event/tick speedup must reach F (default 0.5) of the
 *       baseline's, every busy point must keep event/tick >= 0.9
 *       (structurally ~1.0; the live slack absorbs runner noise --
 *       the committed file is gated at >= 1.0 by
 *       --compare-trajectory), and the idle-heavy point must stay at
 *       or above 1.2x.
 *
 *   --compare-trajectory OLD NEW [--min-speedup X]
 *       Pure file check, no measurement: read two committed
 *       trajectories recorded on the *same host in the same sitting*
 *       and require (a) the aggregate mcf/<kind> tick-engine time to have
 *       improved by at least X (default 3.0), and (b) every point of
 *       NEW to show event/tick >= 1.0.  Deterministic, so CI can gate
 *       on the committed BENCH_throughput.json + pre-change baseline
 *       without re-measuring on a noisy runner.
 *
 * The measuring modes also require the two engines to report
 * identical simulated cycle counts on every repeat -- a free
 * end-to-end differential and determinism check.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/binomial.hh"
#include "analysis/security.hh"
#include "common/serialize.hh"
#include "common/wallclock.hh"
#include "mitigation/mint_sampler.hh"
#include "sim/attack.hh"
#include "sim/experiment.hh"
#include "sim/profile.hh"
#include "sim/sweep.hh"
#include "workload/synth.hh"

namespace
{

using namespace mopac;

void
BM_SystemRun(benchmark::State &state)
{
    const auto kind = static_cast<MitigationKind>(state.range(0));
    std::uint64_t insts = 0;
    for (auto _ : state) {
        SystemConfig cfg = makeConfig(kind, 500);
        cfg.insts_per_core = 20000;
        cfg.warmup_insts = 2000;
        const RunResult r = runWorkload(cfg, "mcf");
        benchmark::DoNotOptimize(r.acts);
        insts += (cfg.insts_per_core + cfg.warmup_insts) *
                 cfg.num_cores;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
    state.SetLabel("items = simulated instructions");
}
BENCHMARK(BM_SystemRun)
    ->Arg(static_cast<int>(MitigationKind::kNone))
    ->Arg(static_cast<int>(MitigationKind::kPracMoat))
    ->Arg(static_cast<int>(MitigationKind::kMopacC))
    ->Arg(static_cast<int>(MitigationKind::kMopacD))
    ->Unit(benchmark::kMillisecond);

void
BM_AttackRun(benchmark::State &state)
{
    std::uint64_t acts = 0;
    for (auto _ : state) {
        SystemConfig cfg = makeConfig(MitigationKind::kMopacD, 500);
        AttackRunner runner(cfg);
        AttackPattern p = makeMultiBankAttack(
            runner.system().addressMap(), 64, 1000);
        const AttackResult res =
            runner.run(p, nsToCycles(100000.0), 8);
        benchmark::DoNotOptimize(res.acts);
        acts += res.acts;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(acts));
    state.SetLabel("items = simulated ACTs");
}
BENCHMARK(BM_AttackRun)->Unit(benchmark::kMillisecond);

void
BM_MintSampler(benchmark::State &state)
{
    constexpr std::uint64_t kSamplerSeed = 1;
    MintSampler sampler(8, Rng(kSamplerSeed));
    std::uint32_t row = 0;
    std::uint64_t selections = 0;
    for (auto _ : state) {
        const auto res = sampler.step(row++);
        selections += res.at_selection ? 1 : 0;
    }
    benchmark::DoNotOptimize(selections);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MintSampler);

void
BM_BinomialTail(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(binomialCdfBelow(472, 23, 0.125));
    }
}
BENCHMARK(BM_BinomialTail);

void
BM_DeriveParameters(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(deriveMopacD(500).ath_star);
        benchmark::DoNotOptimize(
            deriveMopacD(500, 32, false, true).ath_star);
    }
}
BENCHMARK(BM_DeriveParameters);

// ------------------------------------------------------------------
// Perf-trajectory modes (BENCH_throughput.json)
// ------------------------------------------------------------------

/** One engine's measurement of one trajectory point. */
struct EngineSample
{
    std::uint64_t sim_cycles = 0;
    std::uint64_t insts = 0;
    double wall_seconds = 0.0;

    double simCyclesPerSec() const
    {
        return static_cast<double>(sim_cycles) / wall_seconds;
    }

    double instsPerSec() const
    {
        return static_cast<double>(insts) / wall_seconds;
    }
};

/** Both engines on one (workload, mitigation) cell. */
struct TrajectoryPoint
{
    std::string name;
    EngineSample tick;
    EngineSample event;
    /**
     * Ratio of the two recorded wall times.  Wall times are the mean
     * of each engine's fastest quartile of repeats: timing noise is
     * strictly additive, so low-order statistics approach the true
     * cost floor, and averaging the fastest quarter keeps the
     * estimate tight without the raw min's sensitivity to a single
     * lucky sample.  Repeats alternate which engine runs first so
     * position effects (warm caches, turbo ramps) cancel.
     */
    double event_speedup = 0.0;
    /** FNV-1a of configSignature(cfg) + "#" + workload name. */
    std::uint64_t config_hash = 0;
    /** Wall seconds above fold this many interleaved repeats. */
    unsigned repeats = 1;
};

constexpr const char *kIdlePointName = "idle_pchase/none";
/**
 * Live-measurement floors for --check-trajectory.  On busy points the
 * event engine's skip savings roughly pay for its nextEventCycle()
 * maintenance, so the structural event/tick ratio sits at ~1.0-1.02;
 * 0.9 leaves room for runner noise while still catching a real
 * event-path regression.  The idle-heavy pointer chase is the event
 * engine's best case and must keep a clear win even against the
 * post-ISSUE-9 fast tick loop.  The committed trajectory itself is
 * held to the strict >= 1.0 bar by --compare-trajectory, which reads
 * min-of-N numbers from disk instead of re-measuring.
 */
constexpr double kIdleSpeedupFloor = 1.2;
constexpr double kBusySpeedupFloor = 0.9;
constexpr unsigned kDefaultRepeats = 5;
/**
 * Back-to-back runs averaged into one timed sample.  A single run is
 * ~20 ms, short enough that one scheduler preemption moves it by
 * several percent; averaging 4 consecutive runs quarters the spike
 * noise before the quartile fold across repeats even starts.  The
 * recorded wall_seconds stay per-run, so files remain comparable
 * across schema versions.
 */
constexpr unsigned kRunsPerSample = 4;

/**
 * Dependent single-core pointer chase: every instruction is a read
 * that consumes the previous one, with no same-row reuse, so the core
 * spends ~99% of cycles stalled on a row-conflict miss.  This is the
 * engine gap's best case: the tick loop burns one iteration per stall
 * cycle while the event loop jumps straight to the read completion.
 */
WorkloadSpec
idleHeavySpec()
{
    WorkloadSpec spec;
    spec.name = "idle_pchase";
    spec.mpki = 1000.0;
    spec.write_frac = 0.0;
    spec.dep_frac = 1.0;
    spec.burst_len = 1.0;
    spec.cluster = 1.0;
    spec.footprint_rows = 512;
    return spec;
}

/** Run one engine over @p traces and time System::run() alone. */
EngineSample
measureRun(const SystemConfig &cfg,
           const std::vector<TraceSource *> &traces)
{
    System system(cfg, traces);
    const wallclock::TimePoint t0 = wallclock::now();
    const RunResult r = system.run();
    EngineSample s;
    s.wall_seconds = wallclock::secondsSince(t0);
    s.sim_cycles = r.cycles;
    s.insts = static_cast<std::uint64_t>(cfg.insts_per_core +
                                         cfg.warmup_insts) *
              cfg.num_cores;
    return s;
}

EngineSample
measureWorkload(SystemConfig cfg, SimEngine engine,
                const std::string &workload)
{
    cfg.engine = engine;
    const AddressMap map(cfg.geometry);
    auto owned =
        makeWorkloadTraces(workload, map, cfg.num_cores, cfg.seed);
    std::vector<TraceSource *> traces;
    traces.reserve(owned.size());
    for (auto &t : owned) {
        traces.push_back(t.get());
    }
    return measureRun(cfg, traces);
}

EngineSample
measureIdleHeavy(SystemConfig cfg, SimEngine engine)
{
    cfg.engine = engine;
    const AddressMap map(cfg.geometry);
    auto src = makeTraceSource(idleHeavySpec(), map, 0, 1, cfg.seed);
    const std::vector<TraceSource *> traces{src.get()};
    return measureRun(cfg, traces);
}

/**
 * Time one matrix cell @p repeats times per engine, engines
 * interleaved (tick, event, tick, event, ...) so slow host drift hits
 * both sides equally, keeping the min wall time per engine.  Flags
 * @p identical false if the engines ever disagree on simulated cycles
 * or any repeat of one engine diverges from its first (determinism).
 */
TrajectoryPoint
measurePoint(const std::string &name, const SystemConfig &cfg,
             const std::string &workload, bool idle, unsigned repeats,
             bool &identical)
{
    TrajectoryPoint p;
    p.name = name;
    p.repeats = repeats;
    p.config_hash =
        fnv1a64(configSignature(cfg) + "#" +
                (idle ? idleHeavySpec().name : workload));
    std::vector<double> tick_walls;
    std::vector<double> event_walls;
    tick_walls.reserve(repeats);
    event_walls.reserve(repeats);
    const auto run_one = [&](SimEngine engine) {
        EngineSample acc;
        for (unsigned m = 0; m < kRunsPerSample; ++m) {
            const EngineSample one =
                idle ? measureIdleHeavy(cfg, engine)
                     : measureWorkload(cfg, engine, workload);
            if (m == 0) {
                acc = one;
                continue;
            }
            if (one.sim_cycles != acc.sim_cycles) {
                std::fprintf(stderr,
                             "FAIL %s: back-to-back runs changed "
                             "the simulated cycle count "
                             "(nondeterministic run)\n",
                             name.c_str());
                identical = false;
            }
            acc.wall_seconds += one.wall_seconds;
        }
        acc.wall_seconds /= kRunsPerSample;
        return acc;
    };
    for (unsigned r = 0; r < repeats; ++r) {
        // Alternate which engine goes first so position effects
        // (cache warmth, turbo ramps) cancel across repeats.
        EngineSample t;
        EngineSample e;
        if ((r % 2) == 0) {
            t = run_one(SimEngine::kTick);
            e = run_one(SimEngine::kEvent);
        } else {
            e = run_one(SimEngine::kEvent);
            t = run_one(SimEngine::kTick);
        }
        if (t.sim_cycles != e.sim_cycles) {
            std::fprintf(stderr,
                         "FAIL %s: engines disagree on simulated "
                         "cycles (tick %llu, event %llu)\n",
                         name.c_str(),
                         static_cast<unsigned long long>(
                             t.sim_cycles),
                         static_cast<unsigned long long>(
                             e.sim_cycles));
            identical = false;
        }
        tick_walls.push_back(t.wall_seconds);
        event_walls.push_back(e.wall_seconds);
        if (r == 0) {
            p.tick = t;
            p.event = e;
            continue;
        }
        if (t.sim_cycles != p.tick.sim_cycles ||
            e.sim_cycles != p.event.sim_cycles) {
            std::fprintf(stderr,
                         "FAIL %s: repeat %u changed the simulated "
                         "cycle count (nondeterministic run)\n",
                         name.c_str(), r);
            identical = false;
        }
    }
    // Mean of the fastest quartile (>= 1 sample): a low-order
    // statistic of strictly additive noise, less jumpy than the min.
    const auto floor_estimate = [](std::vector<double> &walls) {
        std::sort(walls.begin(), walls.end());
        const std::size_t q = std::max<std::size_t>(
            1, walls.size() / 4);
        double sum = 0.0;
        for (std::size_t i = 0; i < q; ++i) {
            sum += walls[i];
        }
        return sum / static_cast<double>(q);
    };
    p.tick.wall_seconds = floor_estimate(tick_walls);
    p.event.wall_seconds = floor_estimate(event_walls);
    p.event_speedup = p.tick.wall_seconds / p.event.wall_seconds;
    return p;
}

/**
 * Measure the full matrix: mcf under every mitigation kind, plus the
 * idle-heavy pointer chase.  @return false if the engines disagreed
 * on any simulated cycle count or any cell was nondeterministic.
 */
bool
measureTrajectory(std::vector<TrajectoryPoint> &points,
                  unsigned repeats)
{
    bool identical = true;
    const auto record = [&](TrajectoryPoint p) {
        std::fprintf(stderr,
                     "  %-22s tick %8.3fs  event %8.3fs  "
                     "speedup %5.2fx  (quartile of %u)\n",
                     p.name.c_str(), p.tick.wall_seconds,
                     p.event.wall_seconds, p.event_speedup,
                     p.repeats);
        points.push_back(std::move(p));
    };

    for (const MitigationKind kind :
         {MitigationKind::kNone, MitigationKind::kPracMoat,
          MitigationKind::kMopacC, MitigationKind::kMopacD,
          MitigationKind::kMint, MitigationKind::kPride,
          MitigationKind::kTrr, MitigationKind::kPara,
          MitigationKind::kGraphene, MitigationKind::kQprac}) {
        SystemConfig cfg = makeConfig(kind, 500);
        cfg.insts_per_core = 50000;
        cfg.warmup_insts = 5000;
        record(measurePoint(std::string("mcf/") + toString(kind),
                            cfg, "mcf", false, repeats, identical));
    }

    {
        SystemConfig cfg = makeConfig(MitigationKind::kNone, 500);
        cfg.num_cores = 1;
        cfg.insts_per_core = 50000;
        cfg.warmup_insts = 5000;
        record(measurePoint(kIdlePointName, cfg, "", true, repeats,
                            identical));
    }
    return identical;
}

void
appendSample(std::ostringstream &out, const char *key,
             const EngineSample &s)
{
    out << "      \"" << key << "\": {\"sim_cycles\": " << s.sim_cycles
        << ", \"insts\": " << s.insts << ", \"wall_seconds\": "
        << s.wall_seconds << ", \"sim_cycles_per_sec\": "
        << s.simCyclesPerSec() << ", \"insts_per_sec\": "
        << s.instsPerSec() << "}";
}

std::string
trajectoryJson(const std::vector<TrajectoryPoint> &points,
               unsigned repeats)
{
    std::ostringstream out;
    out.precision(6);
    out << "{\n"
        << "  \"schema\": \"mopac-bench-throughput-v2\",\n"
        << "  \"note\": \"host throughput of both run-loop engines; "
           "wall times are the fastest-quartile mean over 'repeats' interleaved runs; "
           "regenerate with sim_throughput --emit-trajectory "
           "(EXPERIMENTS.md)\",\n"
        << "  \"repeats\": " << repeats << ",\n"
        << "  \"runs_per_sample\": " << kRunsPerSample << ",\n"
        << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const TrajectoryPoint &p = points[i];
        char hash[32];
        std::snprintf(hash, sizeof hash, "0x%016llx",
                      static_cast<unsigned long long>(p.config_hash));
        out << "    {\n      \"name\": \"" << p.name << "\",\n"
            << "      \"config_hash\": \"" << hash << "\",\n";
        appendSample(out, "tick", p.tick);
        out << ",\n";
        appendSample(out, "event", p.event);
        out << ",\n      \"event_speedup\": " << p.event_speedup
            << "\n    }" << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return out.str();
}

/** What the check/compare modes need back out of a trajectory file. */
struct FilePoint
{
    double tick_wall = 0.0;
    double event_wall = 0.0;
    double event_speedup = 0.0;
    /** 0 when absent (v1 files carry no hash). */
    std::uint64_t config_hash = 0;
};

/**
 * Pull the per-point wall times and ratios back out of a trajectory
 * file.  The format is the fixed shape this binary writes (v1 or v2),
 * so a targeted scan beats carrying a JSON parser dependency: within
 * each point the first "wall_seconds" belongs to the tick sample and
 * the second to the event sample.
 */
std::map<std::string, FilePoint>
readTrajectoryFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open trajectory %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    std::map<std::string, FilePoint> points;
    const std::string name_key = "\"name\": \"";
    const std::string hash_key = "\"config_hash\": \"";
    const std::string wall_key = "\"wall_seconds\": ";
    const std::string ratio_key = "\"event_speedup\": ";
    std::size_t pos = 0;
    while ((pos = text.find(name_key, pos)) != std::string::npos) {
        pos += name_key.size();
        const std::size_t name_end = text.find('"', pos);
        const std::string name = text.substr(pos, name_end - pos);
        const std::size_t next_name = text.find(name_key, name_end);

        FilePoint fp;
        std::size_t cur = name_end;
        const std::size_t hpos = text.find(hash_key, cur);
        if (hpos != std::string::npos && hpos < next_name) {
            fp.config_hash = std::strtoull(
                text.c_str() + hpos + hash_key.size(), nullptr, 16);
        }
        const std::size_t t_wall = text.find(wall_key, cur);
        if (t_wall == std::string::npos || t_wall >= next_name) {
            break;
        }
        fp.tick_wall = std::strtod(
            text.c_str() + t_wall + wall_key.size(), nullptr);
        const std::size_t e_wall =
            text.find(wall_key, t_wall + wall_key.size());
        if (e_wall == std::string::npos || e_wall >= next_name) {
            break;
        }
        fp.event_wall = std::strtod(
            text.c_str() + e_wall + wall_key.size(), nullptr);
        const std::size_t rpos = text.find(ratio_key, e_wall);
        if (rpos == std::string::npos || rpos >= next_name) {
            break;
        }
        fp.event_speedup = std::strtod(
            text.c_str() + rpos + ratio_key.size(), nullptr);
        points[name] = fp;
        pos = name_end;
    }
    if (points.empty()) {
        std::fprintf(stderr, "no trajectory points in %s\n",
                     path.c_str());
        std::exit(2);
    }
    return points;
}

int
emitTrajectory(const std::string &path, unsigned repeats)
{
    std::vector<TrajectoryPoint> points;
    const bool identical = measureTrajectory(points, repeats);
    std::ofstream out(path);
    out << trajectoryJson(points, repeats);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 2;
    }
    std::fprintf(stderr, "wrote %zu points to %s\n", points.size(),
                 path.c_str());
    return identical ? 0 : 1;
}

int
checkTrajectory(const std::string &baseline_path, double tolerance,
                unsigned repeats)
{
    const std::map<std::string, FilePoint> baseline =
        readTrajectoryFile(baseline_path);
    std::vector<TrajectoryPoint> points;
    bool ok = measureTrajectory(points, repeats);

    for (const TrajectoryPoint &p : points) {
        const double speedup = p.event_speedup;
        const auto it = baseline.find(p.name);
        if (it != baseline.end()) {
            if (it->second.config_hash != 0 &&
                it->second.config_hash != p.config_hash) {
                std::fprintf(stderr,
                             "FAIL %s: baseline config hash "
                             "mismatch (stale baseline?)\n",
                             p.name.c_str());
                ok = false;
            }
            if (speedup < it->second.event_speedup * tolerance) {
                std::fprintf(stderr,
                             "FAIL %s: event speedup %.2fx fell "
                             "below %.2f x baseline %.2fx\n",
                             p.name.c_str(), speedup, tolerance,
                             it->second.event_speedup);
                ok = false;
            }
        }
        const double floor = p.name == kIdlePointName
                                 ? kIdleSpeedupFloor
                                 : kBusySpeedupFloor;
        if (speedup < floor) {
            std::fprintf(stderr,
                         "FAIL %s: event speedup %.2fx below the "
                         "%.2fx floor\n",
                         p.name.c_str(), speedup, floor);
            ok = false;
        }
    }
    std::fprintf(stderr, "trajectory check: %s\n",
                 ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

/**
 * Static busy-path gate: compare two committed trajectory files
 * (measured on the same host, same sitting) without re-measuring.
 * Requires the aggregate mcf/<kind> tick-engine wall time to have improved
 * by >= @p min_speedup from OLD to NEW, and every NEW point to keep
 * event/tick >= 1.0.  Reads files only, so the result is
 * deterministic and safe for CI.
 */
int
compareTrajectory(const std::string &old_path,
                  const std::string &new_path, double min_speedup)
{
    const std::map<std::string, FilePoint> before =
        readTrajectoryFile(old_path);
    const std::map<std::string, FilePoint> after =
        readTrajectoryFile(new_path);
    bool ok = true;

    double old_busy = 0.0;
    double new_busy = 0.0;
    for (const auto &[name, np] : after) {
        const auto it = before.find(name);
        if (it == before.end()) {
            std::fprintf(stderr, "  %-22s (no old measurement)\n",
                         name.c_str());
        } else {
            std::fprintf(stderr,
                         "  %-22s tick %8.3fs -> %8.3fs  "
                         "(%5.2fx)\n",
                         name.c_str(), it->second.tick_wall,
                         np.tick_wall,
                         it->second.tick_wall / np.tick_wall);
            if (name.rfind("mcf/", 0) == 0) {
                old_busy += it->second.tick_wall;
                new_busy += np.tick_wall;
            }
        }
        if (np.event_speedup < 1.0) {
            std::fprintf(stderr,
                         "FAIL %s: committed event speedup %.3fx is "
                         "below 1.0 (event engine slower than "
                         "tick)\n",
                         name.c_str(), np.event_speedup);
            ok = false;
        }
    }
    if (new_busy <= 0.0 || old_busy <= 0.0) {
        std::fprintf(stderr,
                     "FAIL: no mcf/* points shared by both files\n");
        ok = false;
    } else {
        const double agg = old_busy / new_busy;
        std::fprintf(stderr,
                     "aggregate mcf/* tick time: %.3fs -> %.3fs "
                     "(%.2fx, need >= %.2fx)\n",
                     old_busy, new_busy, agg, min_speedup);
        if (agg < min_speedup) {
            ok = false;
        }
    }
    std::fprintf(stderr, "trajectory compare: %s\n",
                 ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

/**
 * Per-point cycle-attribution breakdown: run each matrix cell once
 * under @p engine and print the SimProfile counter report
 * (sim/profile.hh).  @p filter, when non-empty, selects points whose
 * name contains it.
 */
int
profilePoints(SimEngine engine, const std::string &filter)
{
    struct Cell
    {
        std::string name;
        MitigationKind kind;
        bool idle;
    };
    std::vector<Cell> cells;
    for (const MitigationKind kind :
         {MitigationKind::kNone, MitigationKind::kPracMoat,
          MitigationKind::kMopacC, MitigationKind::kMopacD,
          MitigationKind::kMint, MitigationKind::kPride,
          MitigationKind::kTrr, MitigationKind::kPara,
          MitigationKind::kGraphene, MitigationKind::kQprac}) {
        cells.push_back(
            {std::string("mcf/") + toString(kind), kind, false});
    }
    cells.push_back({kIdlePointName, MitigationKind::kNone, true});

    for (const Cell &cell : cells) {
        if (!filter.empty() &&
            cell.name.find(filter) == std::string::npos) {
            continue;
        }
        SystemConfig cfg = makeConfig(cell.kind, 500);
        cfg.insts_per_core = 50000;
        cfg.warmup_insts = 5000;
        if (cell.idle) {
            cfg.num_cores = 1;
        }
        simProfile().reset();
        const EngineSample s =
            cell.idle ? measureIdleHeavy(cfg, engine)
                      : measureWorkload(cfg, engine, "mcf");
        std::printf("== %s (%s engine) ==\n%s\n", cell.name.c_str(),
                    engine == SimEngine::kEvent ? "event" : "tick",
                    profileReport(simProfile(), s.wall_seconds)
                        .c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string emit_path;
    std::string check_path;
    std::string compare_old;
    std::string compare_new;
    std::string profile_filter;
    bool emit = false;
    bool check = false;
    bool compare = false;
    bool profile = false;
    SimEngine profile_engine = SimEngine::kEvent;
    double tolerance = 0.5;
    double min_speedup = 3.0;
    unsigned repeats = kDefaultRepeats;
    const std::string emit_flag = "--emit-trajectory";
    const std::string profile_flag = "--profile";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == emit_flag) {
            emit = true;
            // Accept both "--emit-trajectory PATH" and "=PATH"; the
            // bare form writes the default name in the cwd.
            if (i + 1 < argc && argv[i + 1][0] != '-') {
                emit_path = argv[++i];
            } else {
                emit_path = "BENCH_throughput.json";
            }
        } else if (arg.rfind(emit_flag + "=", 0) == 0) {
            emit = true;
            emit_path = arg.substr(emit_flag.size() + 1);
        } else if (arg == "--check-trajectory" && i + 1 < argc) {
            check = true;
            check_path = argv[++i];
        } else if (arg == "--compare-trajectory" && i + 2 < argc) {
            compare = true;
            compare_old = argv[++i];
            compare_new = argv[++i];
        } else if (arg == "--tolerance" && i + 1 < argc) {
            tolerance = std::strtod(argv[++i], nullptr);
        } else if (arg == "--min-speedup" && i + 1 < argc) {
            min_speedup = std::strtod(argv[++i], nullptr);
        } else if (arg == "--repeats" && i + 1 < argc) {
            repeats = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg.rfind("--repeats=", 0) == 0) {
            repeats = static_cast<unsigned>(std::strtoul(
                arg.c_str() + std::string("--repeats=").size(),
                nullptr, 10));
        } else if (arg == profile_flag) {
            profile = true;
        } else if (arg.rfind(profile_flag + "=", 0) == 0) {
            profile = true;
            profile_filter = arg.substr(profile_flag.size() + 1);
        } else if (arg == "--engine" && i + 1 < argc) {
            const std::string name = argv[++i];
            profile_engine = name == "tick" ? SimEngine::kTick
                                            : SimEngine::kEvent;
        }
    }
    if (repeats == 0) {
        repeats = 1;
    }
    if (emit) {
        return emitTrajectory(emit_path, repeats);
    }
    if (check) {
        return checkTrajectory(check_path, tolerance, repeats);
    }
    if (compare) {
        return compareTrajectory(compare_old, compare_new,
                                 min_speedup);
    }
    if (profile) {
        return profilePoints(profile_engine, profile_filter);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
