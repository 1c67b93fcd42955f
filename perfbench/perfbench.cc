/**
 * @file
 * The simulator benchmark: three named batch workloads run against
 * the public API of mopac_sim, with end-to-end metrics from untraced
 * runs and per-layer metrics from a separate traced run.
 *
 *   perfbench --workload busy_8core|attack_abo|exhibit_sweep
 *             --seed N --seconds S --trace 0|1
 *             [--smoke] [--spans FILE]
 *
 * Each workload is a closed loop: the next repetition starts when the
 * previous one finished, until --seconds of host time are used (at
 * least one repetition).  busy_8core and attack_abo run on the calling
 * thread; exhibit_sweep runs a sim::Runner pool of min(nproc, 4)
 * workers.  --smoke shrinks every horizon so the whole path runs in
 * seconds (self-test only; its numbers mean nothing).
 *
 * Output: one "metric <name> <value> <unit>" line per measured metric,
 * a digest of the simulated statistics (equal digests = identical
 * simulated results), and as the last line one JSON object with the
 * keys correct / attempted / failed / metrics.  perfbench/run.py builds
 * this program and narrows that object to the metrics BENCHMARK.json
 * names.  README.md in this directory explains the workloads and
 * metrics.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/format.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/wallclock.hh"
#include "sim/attack.hh"
#include "sim/experiment.hh"
#include "sim/profile.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "tracing.hh"
#include "workload/attack.hh"
#include "workload/spec.hh"
#include "workload/synth.hh"

namespace
{

using namespace mopac;
using namespace mopac::perfbench;

// ---------------------------------------------------------------------
// Workload sizes.  Changing any of these changes the benchmark.

/** busy_8core: instructions per core (plus 10% warmup). */
constexpr std::uint64_t kBusyInsts = 3000000;
/** exhibit_sweep: the bench binaries' default horizon (bench_util.hh). */
constexpr std::uint64_t kSweepInsts = 200000;
/** attack_abo: simulated time per attack run, as in Tables 9 and 10. */
constexpr double kAttackNs = 1.0e6;
/** Smoke horizons. */
constexpr std::uint64_t kSmokeBusyInsts = 20000;
constexpr std::uint64_t kSmokeSweepInsts = 2000;
constexpr double kSmokeAttackNs = 2.0e4;

/** Set-up samples every run collects at least. */
constexpr unsigned kMinSetupSamples = 7;
/** exhibit_sweep: every k-th point is replayed serially when traced. */
constexpr std::uint64_t kTracedPointStride = 20;
/** exhibit_sweep: points re-run with Runner::replay per run. */
constexpr unsigned kReplayChecks = 3;
/**
 * exhibit_sweep: pool size cap.  Each worker holds one System (about
 * 130 MB), and a fixed pool keeps the numbers comparable between
 * hosts with at least this many CPUs.
 */
constexpr unsigned kMaxWorkers = 4;

/** Paper references for paper_err_pp (percent). */
constexpr double kPaperPrac = 10.0;
constexpr double kPaperMopacC = 1.8;
constexpr double kPaperMopacD = 0.8;
constexpr double kPaperTab9MopacC = 6.7;
constexpr double kPaperTab10Mitig = 7.4;
constexpr double kPaperTab10Srq = 14.9;

// ---------------------------------------------------------------------
// Options, statistics helpers, output.

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string spans;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload busy_8core|attack_abo|"
                 "exhibit_sweep --seed N --seconds S --trace 0|1 "
                 "[--smoke] [--spans FILE]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(arg + " needs a value");
            }
            return argv[++i];
        };
        auto number = [&](const std::string &text) -> double {
            char *end = nullptr;
            const double v = std::strtod(text.c_str(), &end);
            if (text.empty() || end == nullptr || *end != '\0' || v < 0) {
                usage(arg + " expects a non-negative number");
            }
            return v;
        };
        if (arg == "--workload") {
            o.workload = value();
            have_workload = true;
        } else if (arg == "--seed") {
            o.seed = static_cast<std::uint64_t>(number(value()));
        } else if (arg == "--seconds") {
            o.seconds = number(value());
        } else if (arg == "--trace") {
            o.trace = number(value()) != 0.0;
        } else if (arg == "--spans") {
            o.spans = value();
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (!have_workload) {
        usage("--workload is required");
    }
    return o;
}

double
median(std::vector<double> xs)
{
    if (xs.empty()) {
        return 0.0;
    }
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/** Nearest-rank percentile, @p q in (0, 1]. */
double
percentile(std::vector<double> xs, double q)
{
    if (xs.empty()) {
        return 0.0;
    }
    std::sort(xs.begin(), xs.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(xs.size())));
    return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return ratio(static_cast<double>(num), static_cast<double>(den));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** CPUs this process may run on (what nproc prints). */
unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        return std::max(1, CPU_COUNT(&set));
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Every metric of a run, in print order, plus the correctness tally. */
class Report
{
  public:
    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        if (!std::isfinite(value)) {
            value = 0.0;
        }
        metrics_.push_back({name, value, unit});
    }

    /** Count one checked run or point; a false @p ok marks it failed. */
    void
    attempt(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            std::cout << "check FAILED: " << what << "\n";
        }
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    void note(const std::string &line) { std::cout << line << "\n"; }

    /** Metric lines, then the JSON result as the last line. */
    void
    print(std::uint64_t digest) const
    {
        for (const Metric &m : metrics_) {
            std::cout << "metric " << m.name << " " << number(m.value)
                      << " " << m.unit << "\n";
        }
        std::cout << format("digest 0x{:016x}", digest) << "\n";
        std::cout << "{\"correct\": "
                  << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
                  << ", \"attempted\": " << attempted_
                  << ", \"failed\": " << failed_ << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            std::cout << (i ? ", " : "") << '"' << m.name
                      << "\": {\"value\": " << number(m.value)
                      << ", \"unit\": \"" << m.unit << "\"}";
        }
        std::cout << "}}" << std::endl;
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    static std::string
    number(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    }

    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** One measured repetition of a workload's unit of work. */
struct Rep
{
    double wall_s = 0.0;
    double sim_cycles = 0.0;
    double sim_acts = 0.0;
    double sim_insts = 0.0;
};

/** End-to-end samples gathered over a run's repetitions. */
struct E2e
{
    std::vector<Rep> reps;
    std::vector<double> setups;
    std::vector<double> point_walls;
    double paper_err_pp = 0.0;
    /** Peak RSS to report; 0 means the process peak at the end. */
    double peak_rss_mb = 0.0;
    bool has_insts = false;
    bool has_points = false;
    bool has_paper = false;
};

void
reportE2e(Report &rep, const E2e &e)
{
    std::vector<double> walls;
    std::vector<double> cps;
    std::vector<double> aps;
    std::vector<double> ips;
    for (const Rep &r : e.reps) {
        walls.push_back(r.wall_s);
        cps.push_back(ratio(r.sim_cycles, r.wall_s));
        aps.push_back(ratio(r.sim_acts, r.wall_s));
        ips.push_back(ratio(r.sim_insts, r.wall_s));
    }
    std::string list;
    for (const double w : walls) {
        list += format(" {:.4f}", w);
    }
    rep.note(format("repetitions {}  set-up samples {}  walls (s):{}",
                    e.reps.size(), e.setups.size(), list));
    rep.metric("wall_s", median(walls), "s");
    rep.metric("setup_s", median(e.setups), "s");
    rep.metric("peak_rss_mb",
               e.peak_rss_mb > 0.0 ? e.peak_rss_mb : peakRssMb(), "MB");
    if (e.has_insts) {
        rep.metric("sim_insts_per_s", median(ips), "1/s");
    }
    rep.metric("sim_cycles_per_s", median(cps), "1/s");
    rep.metric("sim_acts_per_s", median(aps), "1/s");
    if (e.has_points) {
        rep.note(format("point walls: {} samples",
                        e.point_walls.size()));
        rep.metric("point_wall_p50_s", percentile(e.point_walls, 0.5), "s");
        rep.metric("point_wall_p90_s", percentile(e.point_walls, 0.9), "s");
        rep.metric("point_wall_samples",
                   static_cast<double>(e.point_walls.size()), "count");
    }
    rep.metric("failed_frac", ratio(rep.failed(), rep.attempted()), "frac");
    if (e.has_paper) {
        rep.metric("paper_err_pp", e.paper_err_pp, "pp");
    }
}


// ---------------------------------------------------------------------
// Traced runs: per-layer accounting shared by every workload.

/** Simulated counts of one unit of work (identical every repetition). */
struct SimCounts
{
    std::uint64_t acts = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t refs = 0;
    std::uint64_t rfms = 0;
    std::uint64_t alerts = 0;
    double hit_cas = 0.0;
    double latency_weighted = 0.0;

    void
    add(const RunResult &r)
    {
        acts += r.acts;
        reads += r.reads;
        writes += r.writes;
        refs += r.refs;
        rfms += r.rfms;
        alerts += r.alerts;
        hit_cas += r.rbhr * static_cast<double>(r.reads + r.writes);
        latency_weighted +=
            r.avg_read_latency_ns * static_cast<double>(r.reads);
    }
};

/** Runner-level spans of the pooled exhibit sweeps. */
struct SweepTotals
{
    double wall_s = 0.0;
    double point_s = 0.0;
    double tail_s = 0.0;
    std::uint64_t points = 0;
    std::uint64_t points_failed = 0;
    unsigned jobs = 0;
};

/** Everything a traced run accumulates over its traced passes. */
struct LayerTotals
{
    Tracer tracer;
    LoopCounters loop;
    SimProfile prof;
    /** Units of work traced (one repetition each). */
    std::uint64_t units = 0;
    std::uint64_t untraced_wall_ns = 0;
    std::uint64_t checker_ns = 0;
    std::uint64_t checker_acts = 0;
    /** onActivate calls the mitigation decorators saw. */
    std::uint64_t mitigation_acts = 0;
    EngineStats engine;
    std::uint64_t pres = 0;
    std::uint64_t precus = 0;
    SweepTotals sweep;
    /** Simulated counts of one unit of work (the first repetition). */
    SimCounts sim_counts;
};

/** Add the component counters of @p after - @p before into @p into. */
void
addProfileDelta(SimProfile &into, const SimProfile &before,
                const SimProfile &after)
{
    into.core_ticks += after.core_ticks - before.core_ticks;
    into.core_active_ticks +=
        after.core_active_ticks - before.core_active_ticks;
    into.core_issue_scans += after.core_issue_scans - before.core_issue_scans;
    into.core_issue_steps += after.core_issue_steps - before.core_issue_steps;
    into.mc_ticks += after.mc_ticks - before.mc_ticks;
    into.mc_sched_passes += after.mc_sched_passes - before.mc_sched_passes;
    into.mc_cas_candidates +=
        after.mc_cas_candidates - before.mc_cas_candidates;
    into.mc_act_candidates +=
        after.mc_act_candidates - before.mc_act_candidates;
    into.mc_queue_cycles += after.mc_queue_cycles - before.mc_queue_cycles;
    into.mc_mark_walks += after.mc_mark_walks - before.mc_mark_walks;
}

/** One sub-channel's checker verdict, kept for the replay check. */
struct LiveChecker
{
    std::uint32_t max_unmitigated = 0;
    std::uint64_t violations = 0;
    std::uint64_t acts = 0;
};

/**
 * The traced pass of one unit: build the inputs (timed as workload
 * set-up), the System (timed as construction, with its minor faults),
 * wrap every engine in a TimedMitigator, run @p run_fn inside a kSim
 * span, tear everything down (timed), and only then -- outside the
 * traced wall time -- replay each captured checker stream.
 *
 * @p make_inputs returns a unique_ptr to the workload inputs;
 * @p make_system builds the System from them; @p run_fn(system, inputs,
 * loop) drives it and returns the RunResult.
 */
template <typename MakeInputs, typename MakeSystem, typename RunFn>
RunResult
tracedUnit(const SystemConfig &cfg, const std::string &what,
           LayerTotals &tot, Report &report, MakeInputs &&make_inputs,
           MakeSystem &&make_system, RunFn &&run_fn)
{
    Tracer &tr = tot.tracer;
    PhaseTimes &ph = tr.phases();
    const double span_start = tr.secondsNow();
    const auto t0 = wallclock::now();
    auto inputs = make_inputs();
    const auto t1 = wallclock::now();
    const std::uint64_t flt0 = threadMinorFaults();
    std::unique_ptr<System> system;
    {
        const LayerSpan span(tr, Layer::kSim);
        system = make_system(*inputs);
    }
    const std::uint64_t flt1 = threadMinorFaults();
    const auto t2 = wallclock::now();
    const double run_start = tr.secondsNow();

    std::vector<std::unique_ptr<TimedMitigator>> wrappers;
    for (unsigned s = 0; s < system->numSubchannels(); ++s) {
        wrappers.push_back(std::make_unique<TimedMitigator>(
            system->engine(s), system->subchannel(s), tr));
        system->subchannel(s).setMitigator(wrappers.back().get());
    }
    const SimProfile before = simProfile();
    LoopCounters loop;
    RunResult res;
    {
        const LayerSpan span(tr, Layer::kSim);
        res = run_fn(*system, *inputs, loop);
    }
    addProfileDelta(tot.prof, before, simProfile());
    const double run_end = tr.secondsNow();

    std::vector<LiveChecker> live;
    std::vector<std::vector<CheckerEvent>> streams;
    for (unsigned s = 0; s < system->numSubchannels(); ++s) {
        const SubChannel &dev = system->subchannel(s);
        live.push_back({dev.checker().maxUnmitigated(),
                        dev.checker().violations(), dev.stats().acts});
        tot.pres += dev.stats().pres;
        tot.precus += dev.stats().precus;
        const EngineStats &es = system->engine(s).engineStats();
        tot.engine.alerts_requested += es.alerts_requested;
        tot.engine.mitigations += es.mitigations;
        tot.engine.srq_insertions += es.srq_insertions;
        tot.engine.srq_coalesced += es.srq_coalesced;
        tot.mitigation_acts += wrappers[s]->actCalls();
        streams.push_back(wrappers[s]->takeEvents());
    }
    const auto t3 = wallclock::now();
    {
        const LayerSpan span(tr, Layer::kSim);
        system.reset();
        inputs.reset();
    }
    const auto t4 = wallclock::now();

    ph.workload_setup_ns += nsBetween(t0, t1);
    ph.construct_ns += nsBetween(t1, t2);
    ph.construct_minflt += flt1 - flt0;
    ph.teardown_ns += nsBetween(t3, t4);
    ph.wall_ns += nsBetween(t0, t4);
    ++ph.constructions;
    tot.loop.cycles_executed += loop.cycles_executed;
    tot.loop.cycles_skipped += loop.cycles_skipped;
    tot.loop.event_probes += loop.event_probes;
    tr.addSpan({"construct " + what, 0, 0, span_start, run_start});
    tr.addSpan({"run " + what, 0, 0, run_start, run_end});
    tr.addSpan({"teardown " + what, 0, 0, run_end, tr.secondsNow()});

    for (std::size_t s = 0; s < streams.size(); ++s) {
        const CheckerReplay replay =
            replayChecker(streams[s], cfg.geometry, cfg.trh);
        tot.checker_ns += replay.ns;
        tot.checker_acts += replay.acts;
        report.attempt(replay.parsed &&
                           replay.max_unmitigated ==
                               live[s].max_unmitigated &&
                           replay.violations == live[s].violations &&
                           replay.acts == live[s].acts,
                       format("{}: checker replay of sub-channel {} gives "
                              "max_unmitigated {} (in-system {})",
                              what, s, replay.max_unmitigated,
                              live[s].max_unmitigated));
    }
    return res;
}

/**
 * A named workload's per-core traces, built the way runWorkload()
 * builds them; with a @p tracer every source is wrapped in a
 * TimedTraceSource.  The map outlives the sources that refer to it.
 */
struct TraceInputs
{
    TraceInputs(const SystemConfig &cfg, const std::string &name,
                Tracer *tracer = nullptr)
        : map(cfg.geometry),
          owned(makeWorkloadTraces(name, map, cfg.num_cores, cfg.seed))
    {
        for (auto &t : owned) {
            if (tracer != nullptr) {
                timed.push_back(
                    std::make_unique<TimedTraceSource>(*t, *tracer));
                ptrs.push_back(timed.back().get());
            } else {
                ptrs.push_back(t.get());
            }
        }
    }

    AddressMap map;
    std::vector<std::unique_ptr<TraceSource>> owned;
    std::vector<std::unique_ptr<TimedTraceSource>> timed;
    std::vector<TraceSource *> ptrs;
};

/** The untraced run of one named workload, timed by phase. */
struct UntracedRun
{
    RunResult result;
    double setup_s = 0.0;
    double wall_s = 0.0;
    double insts = 0.0;
    SimProfile loop_prof;
};

UntracedRun
untracedWorkloadRun(const SystemConfig &cfg, const std::string &name)
{
    UntracedRun out;
    const auto t0 = wallclock::now();
    {
        const TraceInputs in(cfg, name);
        System system(cfg, in.ptrs);
        out.setup_s = wallclock::secondsSince(t0);
        const SimProfile before = simProfile();
        out.result = system.run();
        const SimProfile &after = simProfile();
        out.loop_prof.cycles_run = after.cycles_run - before.cycles_run;
        out.loop_prof.cycles_skipped =
            after.cycles_skipped - before.cycles_skipped;
        out.loop_prof.event_maint = after.event_maint - before.event_maint;
        for (unsigned i = 0; i < cfg.num_cores; ++i) {
            out.insts +=
                static_cast<double>(system.cpu().core(i).retiredInsts());
        }
    }
    out.wall_s = wallclock::secondsSince(t0);
    return out;
}

/** Traced counterpart of untracedWorkloadRun(); checks it matches. */
void
tracedWorkloadRun(const SystemConfig &cfg, const std::string &name,
                  const UntracedRun &reference, LayerTotals &tot,
                  Report &report, const std::string &what)
{
    Tracer &tr = tot.tracer;
    LoopCounters loop_seen;
    const RunResult res = tracedUnit(
        cfg, what, tot, report,
        [&] { return std::make_unique<TraceInputs>(cfg, name, &tr); },
        [&](TraceInputs &in) {
            return std::make_unique<System>(cfg, in.ptrs);
        },
        [&](System &system, TraceInputs &, LoopCounters &loop) {
            RunResult r = tracedSystemRun(system, tr, loop);
            loop_seen = loop;
            return r;
        });
    tot.untraced_wall_ns +=
        static_cast<std::uint64_t>(reference.wall_s * 1e9);
    report.attempt(
        sameRunResult(res, reference.result) && !res.timed_out &&
            res.violations == 0 &&
            loop_seen.cycles_executed == reference.loop_prof.cycles_run &&
            loop_seen.cycles_skipped == reference.loop_prof.cycles_skipped &&
            loop_seen.event_probes == reference.loop_prof.event_maint,
        what + ": traced run differs from System::run() (RunResult or "
               "loop counters), or violated / timed out");
}

/**
 * The closed loop's stop rule: start another repetition only if one as
 * long as the last still fits in the --seconds budget.
 */
class Budget
{
  public:
    explicit Budget(double seconds) : seconds_(seconds) {}

    bool
    another(double last_rep_s) const
    {
        return wallclock::secondsSince(start_) + last_rep_s <= seconds_;
    }

  private:
    double seconds_;
    wallclock::TimePoint start_ = wallclock::now();
};

SystemConfig
pinnedConfig(MitigationKind kind, std::uint64_t insts, std::uint64_t seed)
{
    SystemConfig cfg = makeConfig(kind, 500);
    // The benchmark measures the default event engine whatever the
    // environment says.
    cfg.engine = SimEngine::kEvent;
    cfg.insts_per_core = insts;
    cfg.warmup_insts = insts / 10;
    cfg.seed = seed;
    return cfg;
}

// ---------------------------------------------------------------------
// busy_8core

void
runBusy(const Options &opt, Report &report, std::uint64_t &digest,
        E2e &e2e, LayerTotals &tot)
{
    const SystemConfig cfg =
        pinnedConfig(MitigationKind::kMopacD,
                     opt.smoke ? kSmokeBusyInsts : kBusyInsts,
                     Rng::streamSeed(opt.seed, 0));
    const std::string name = "mcf";
    report.note(format("busy_8core: mcf x{} cores, MoPAC-D @ T_RH 500, "
                       "{} insts/core + {} warmup",
                       cfg.num_cores, cfg.insts_per_core, cfg.warmup_insts));
    const Budget budget(opt.seconds);
    RunResult first;
    double last = 0.0;
    do {
        const UntracedRun run = untracedWorkloadRun(cfg, name);
        const bool first_rep = e2e.reps.empty();
        if (first_rep) {
            first = run.result;
            digest = digestRunResult(digest, first);
            tot.sim_counts.add(first);
        }
        report.attempt(!run.result.timed_out &&
                           run.result.violations == 0 &&
                           sameRunResult(run.result, first),
                       "busy_8core: run violated, timed out or differs "
                       "from the first repetition");
        last = run.wall_s;
        if (opt.trace) {
            const auto t0 = wallclock::now();
            tracedWorkloadRun(cfg, name, run, tot, report, "busy_8core");
            ++tot.units;
            last += wallclock::secondsSince(t0);
        }
        e2e.reps.push_back({run.wall_s, static_cast<double>(run.result.cycles),
                            static_cast<double>(run.result.acts), run.insts});
        e2e.setups.push_back(run.setup_s);
    } while (budget.another(last));
    while (!opt.trace && e2e.setups.size() < kMinSetupSamples) {
        const auto t0 = wallclock::now();
        const TraceInputs in(cfg, name);
        const System system(cfg, in.ptrs);
        e2e.setups.push_back(wallclock::secondsSince(t0));
    }
    e2e.has_insts = true;
}

// ---------------------------------------------------------------------
// attack_abo

struct AttackCase
{
    const char *label;
    MitigationKind kind;
    bool srq_fill;
};

constexpr AttackCase kAttackCases[] = {
    {"multi-bank/none", MitigationKind::kNone, false},
    {"multi-bank/mopac-c", MitigationKind::kMopacC, false},
    {"multi-bank/mopac-d", MitigationKind::kMopacD, false},
    {"srq-fill/none", MitigationKind::kNone, true},
    {"srq-fill/mopac-d", MitigationKind::kMopacD, true},
};

/** The attack inputs derived from the seed. */
struct AttackRows
{
    std::uint32_t victim_row;
    std::uint32_t fill_start_row;
};

AttackPattern
makeAttack(const AttackCase &c, const AddressMap &map, const AttackRows &rows)
{
    return c.srq_fill ? makeManySidedAttack(map, 0, 0, 48, rows.fill_start_row)
                      : makeMultiBankAttack(map, 64, rows.victim_row);
}

struct AttackInputs
{
    AttackInputs(const SystemConfig &cfg, const AttackCase &c,
                 const AttackRows &rows)
        : map(cfg.geometry), pattern(makeAttack(c, map, rows))
    {
    }

    AddressMap map;
    AttackPattern pattern;
};

void
runAttack(const Options &opt, Report &report, std::uint64_t &digest,
          E2e &e2e, LayerTotals &tot)
{
    constexpr unsigned kInflight = 8;
    const Cycle duration =
        nsToCycles(opt.smoke ? kSmokeAttackNs : kAttackNs);
    const std::uint64_t engine_seed = Rng::streamSeed(opt.seed, 1);
    auto row_from = [&](std::uint32_t base, std::uint64_t stream) {
        return base + static_cast<std::uint32_t>(
                          Rng::streamSeed(opt.seed, stream) % 1000);
    };
    const AttackRows rows{row_from(1000, 2), row_from(3000, 3)};
    report.note(format("attack_abo: {} attack runs of {} cycles, victim row "
                       "{}, SRQ-fill rows from {}",
                       std::size(kAttackCases), duration, rows.victim_row,
                       rows.fill_start_row));
    const Budget budget(opt.seconds);
    std::vector<RunResult> first;
    double last = 0.0;
    do {
        const auto rep_start = wallclock::now();
        double traced_s = 0.0;
        Rep rep;
        std::vector<RunResult> results;
        for (const AttackCase &c : kAttackCases) {
            const SystemConfig cfg = pinnedConfig(c.kind, 0, engine_seed);
            const auto t0 = wallclock::now();
            RunResult stats;
            double setup = 0.0;
            {
                AttackRunner runner(cfg);
                AttackPattern pattern =
                    makeAttack(c, runner.system().addressMap(), rows);
                setup = wallclock::secondsSince(t0);
                runner.run(pattern, duration, kInflight);
                stats = runner.system().collectStats(duration);
            }
            const double run_wall = wallclock::secondsSince(t0);
            e2e.setups.push_back(setup);
            rep.sim_cycles += static_cast<double>(duration);
            rep.sim_acts += static_cast<double>(stats.acts);
            results.push_back(stats);
            if (opt.trace) {
                const auto tt = wallclock::now();
                const RunResult traced = tracedUnit(
                    cfg, c.label, tot, report,
                    [&] {
                        return std::make_unique<AttackInputs>(cfg, c, rows);
                    },
                    [&](AttackInputs &) {
                        return std::make_unique<System>(
                            cfg, std::vector<TraceSource *>{});
                    },
                    [&](System &system, AttackInputs &in,
                        LoopCounters &loop) {
                        return tracedAttackRun(system, in.pattern, duration,
                                               kInflight, tot.tracer, loop);
                    });
                tot.untraced_wall_ns +=
                    static_cast<std::uint64_t>(run_wall * 1e9);
                report.attempt(sameRunResult(traced, stats),
                               std::string(c.label) +
                                   ": traced attack run differs from "
                                   "AttackRunner::run()");
                traced_s += wallclock::secondsSince(tt);
            }
        }
        rep.wall_s = wallclock::secondsSince(rep_start) - traced_s;
        if (first.empty()) {
            first = results;
            for (const RunResult &r : first) {
                digest = digestRunResult(digest, r);
                tot.sim_counts.add(r);
            }
        }
        for (std::size_t i = 0; i < results.size(); ++i) {
            // The unprotected baselines are meant to be broken by the
            // attack; only the mitigated systems must stay secure.
            const bool secure =
                kAttackCases[i].kind == MitigationKind::kNone ||
                results[i].violations == 0;
            report.attempt(secure && sameRunResult(results[i], first[i]),
                           std::string(kAttackCases[i].label) +
                               ": violated or differs from the first "
                               "repetition");
        }
        if (opt.trace) {
            ++tot.units;
        }
        e2e.reps.push_back(rep);
        last = rep.wall_s + traced_s;
    } while (budget.another(last));

    // Tables 9 and 10, simulated columns at T_RH 500.
    auto loss = [&](std::size_t test, std::size_t base) {
        return 100.0 * (1.0 - ratio(static_cast<double>(first[test].acts),
                                    static_cast<double>(first[base].acts)));
    };
    const double c_mb = loss(1, 0);
    const double d_mb = loss(2, 0);
    const double d_srq = loss(4, 3);
    report.note(format("attack_abo slowdowns: MoPAC-C multi-bank {:.2f}% "
                       "(paper {}%), MoPAC-D multi-bank {:.2f}% (paper {}%), "
                       "MoPAC-D SRQ-fill {:.2f}% (paper {}%)",
                       c_mb, kPaperTab9MopacC, d_mb, kPaperTab10Mitig, d_srq,
                       kPaperTab10Srq));
    e2e.paper_err_pp = (std::abs(c_mb - kPaperTab9MopacC) +
                        std::abs(d_mb - kPaperTab10Mitig) +
                        std::abs(d_srq - kPaperTab10Srq)) /
                       3.0;
    e2e.has_paper = true;
}

// ---------------------------------------------------------------------
// exhibit_sweep

struct SweepGrid
{
    std::vector<ExperimentPoint> points;
    /** (workload, mitigation, seed) -> index into points. */
    std::map<std::tuple<std::string, int, std::uint64_t>, std::size_t> index;
    /** Per workload: the seeds its slowdowns average over. */
    std::map<std::string, std::vector<std::uint64_t>> seeds;
};

constexpr MitigationKind kSweepKinds[] = {
    MitigationKind::kNone, MitigationKind::kPracMoat, MitigationKind::kMopacC,
    MitigationKind::kMopacD};

/**
 * The Fig 1d / 9 / 11 grid: all 23 Table-4 workloads under none, PRAC,
 * MoPAC-C and MoPAC-D at T_RH 500, with the STREAM kernels paired over
 * three seeds like SlowdownLab.  Workload w's seed is stream w of the
 * benchmark seed.
 */
SweepGrid
makeSweep(std::uint64_t seed, std::uint64_t insts)
{
    SweepGrid grid;
    const std::vector<std::string> names = allWorkloadNames();
    for (std::size_t w = 0; w < names.size(); ++w) {
        const std::string &name = names[w];
        const std::uint64_t base = Rng::streamSeed(seed, w);
        const bool streaming =
            name.rfind("mix", 0) != 0 && findWorkload(name).streaming;
        std::vector<std::uint64_t> seeds{base};
        if (streaming) {
            seeds = {base, base + 777, base + 1555};
        }
        grid.seeds[name] = seeds;
        for (const MitigationKind kind : kSweepKinds) {
            for (const std::uint64_t s : seeds) {
                ExperimentPoint p;
                p.point_id = grid.points.size();
                p.config_label = toString(kind) + "@500";
                p.workload = name;
                p.cfg = pinnedConfig(kind, insts, s);
                grid.index[{name, static_cast<int>(kind), s}] =
                    grid.points.size();
                grid.points.push_back(std::move(p));
            }
        }
    }
    return grid;
}

/** Mean slowdown (percent) of @p kind over every workload. */
double
meanSlowdownPct(const SweepGrid &grid, const std::vector<PointResult> &res,
                MitigationKind kind)
{
    double sum = 0.0;
    for (const auto &[name, seeds] : grid.seeds) {
        double w = 0.0;
        for (const std::uint64_t s : seeds) {
            auto run_of = [&](MitigationKind k) -> const RunResult & {
                return res[grid.index.at({name, static_cast<int>(k), s})]
                    .run;
            };
            const RunResult &base = run_of(MitigationKind::kNone);
            const RunResult &test = run_of(kind);
            if (base.ipcs.empty() || test.ipcs.size() != base.ipcs.size()) {
                return 0.0;
            }
            w += weightedSlowdown(base, test);
        }
        sum += w / static_cast<double>(seeds.size());
    }
    return 100.0 * sum / static_cast<double>(grid.seeds.size());
}

/** Maps worker threads to small indices for the point spans. */
class WorkerIds
{
  public:
    unsigned
    self()
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto [it, inserted] =
            ids_.emplace(std::this_thread::get_id(),
                         static_cast<unsigned>(ids_.size()));
        return it->second;
    }

  private:
    std::mutex mutex_;
    std::map<std::thread::id, unsigned> ids_;
};

void
runSweep(const Options &opt, Report &report, std::uint64_t &digest,
         E2e &e2e, LayerTotals &tot)
{
    const std::uint64_t insts = opt.smoke ? kSmokeSweepInsts : kSweepInsts;
    const SweepGrid grid = makeSweep(opt.seed, insts);
    const unsigned jobs = std::min(usableCpus(), kMaxWorkers);
    RunnerOptions ropts;
    ropts.jobs = jobs;
    const Runner runner(ropts);
    report.note(format("exhibit_sweep: {} points, {} insts/core, {} workers",
                       grid.points.size(), insts, jobs));

    // Set-up samples and the per-point memory peak: serial runs of
    // spread-out points, before the pool raises the process peak with
    // several Systems at once (that pool peak depends on which points
    // happen to overlap, so it is printed but not used as the metric).
    std::vector<std::pair<std::size_t, RunResult>> serial;
    if (!opt.trace) {
        for (unsigned k = 0; k < kMinSetupSamples; ++k) {
            const std::size_t id = (k * grid.points.size()) / kMinSetupSamples;
            const ExperimentPoint &p = grid.points[id];
            const UntracedRun run = untracedWorkloadRun(p.cfg, p.workload);
            e2e.setups.push_back(run.setup_s);
            serial.emplace_back(id, run.result);
        }
        e2e.peak_rss_mb = peakRssMb();
    }

    const Budget budget(opt.seconds);
    std::vector<PointResult> first;
    double last = 0.0;
    do {
        Tracer &tr = tot.tracer;
        std::mutex span_mutex;
        WorkerIds workers;
        std::vector<CoarseSpan> point_spans;
        const double sweep_start = tr.secondsNow();
        Runner::ProgressFn progress = nullptr;
        if (opt.trace) {
            progress = [&](const ExperimentPoint &p, const PointResult &r) {
                const double end = tr.secondsNow();
                CoarseSpan span{"point " + p.config_label + " " + p.workload,
                                p.point_id, workers.self(),
                                end - r.wall_seconds, end};
                const std::lock_guard<std::mutex> lock(span_mutex);
                point_spans.push_back(std::move(span));
            };
        }
        const auto t0 = wallclock::now();
        const std::vector<PointResult> results =
            runner.run(grid.points, progress);
        const double wall = wallclock::secondsSince(t0);
        const double sweep_end = tr.secondsNow();

        Rep rep;
        rep.wall_s = wall;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const PointResult &r = results[i];
            const ExperimentPoint &p = grid.points[i];
            const bool ok = r.status == PointStatus::kOk &&
                            r.run.violations == 0 && !r.run.timed_out;
            const bool same =
                first.empty() || sameRunResult(r.run, first[i].run);
            report.attempt(ok && same,
                           format("point {} ({} / {}): {} {}{}", p.point_id,
                                  p.config_label, p.workload,
                                  toString(r.status), r.error,
                                  same ? "" : " (differs from repetition 1)"));
            rep.sim_cycles += static_cast<double>(r.run.cycles);
            rep.sim_acts += static_cast<double>(r.run.acts);
            rep.sim_insts += static_cast<double>(
                p.cfg.num_cores * (p.cfg.insts_per_core + p.cfg.warmup_insts));
            e2e.point_walls.push_back(r.wall_seconds);
        }
        if (first.empty()) {
            first = results;
            for (const PointResult &r : first) {
                digest = digestRunResult(digest, r.run);
                tot.sim_counts.add(r.run);
            }
        }
        e2e.reps.push_back(rep);
        last = wall;

        if (opt.trace) {
            // Runner layer: busy share and the idle tail.
            SweepTotals &st = tot.sweep;
            std::map<unsigned, double> last_end;
            for (const CoarseSpan &s : point_spans) {
                st.point_s += s.end_s - s.start_s;
                last_end[s.worker] = std::max(last_end[s.worker], s.end_s);
                tr.addSpan(s);
            }
            double first_idle = sweep_end;
            for (const auto &[worker, end] : last_end) {
                first_idle = std::min(first_idle, end);
            }
            st.tail_s += sweep_end - first_idle;
            st.wall_s += sweep_end - sweep_start;
            st.points += results.size();
            for (const PointResult &r : results) {
                st.points_failed += r.status == PointStatus::kOk ? 0 : 1;
            }
            st.jobs = jobs;

            // Serial traced replay of a fixed subset of points.
            const auto tt = wallclock::now();
            for (std::size_t i = 0; i < grid.points.size();
                 i += kTracedPointStride) {
                const ExperimentPoint &p = grid.points[i];
                const UntracedRun ref = untracedWorkloadRun(p.cfg, p.workload);
                report.attempt(sameRunResult(ref.result, results[i].run),
                               format("point {}: serial run differs from the "
                                      "pooled result",
                                      p.point_id));
                tracedWorkloadRun(p.cfg, p.workload, ref, tot, report,
                                  format("point {} ({} / {})", p.point_id,
                                         p.config_label, p.workload));
            }
            ++tot.units;
            last += wallclock::secondsSince(tt);
        }
    } while (budget.another(last));

    if (!opt.trace) {
        for (const auto &[id, result] : serial) {
            report.attempt(sameRunResult(result, first[id].run),
                           format("point {}: serial run differs from the "
                                  "pooled result",
                                  id));
        }
        report.note(format("pool peak RSS {:.1f} MB", peakRssMb()));
        // Runner::replay of a seed-chosen sample must equal the pool.
        for (unsigned k = 0; k < kReplayChecks; ++k) {
            const std::size_t id = static_cast<std::size_t>(
                Rng::streamSeed(opt.seed, 100 + k) % grid.points.size());
            const PointResult again = Runner::replay(grid.points[id]);
            report.attempt(again.status == PointStatus::kOk &&
                               sameRunResult(again.run, first[id].run),
                           format("point {}: Runner::replay differs from the "
                                  "pooled result",
                                  id));
        }
    }

    auto mean_of = [&](MitigationKind kind) {
        return meanSlowdownPct(grid, first, kind);
    };
    const double prac = mean_of(MitigationKind::kPracMoat);
    const double mc = mean_of(MitigationKind::kMopacC);
    const double md = mean_of(MitigationKind::kMopacD);
    report.note(format("exhibit_sweep mean slowdowns @ T_RH 500: PRAC "
                       "{:.2f}% (paper {}%), MoPAC-C {:.2f}% (paper {}%), "
                       "MoPAC-D {:.2f}% (paper {}%)",
                       prac, kPaperPrac, mc, kPaperMopacC, md, kPaperMopacD));
    e2e.paper_err_pp = (std::abs(prac - kPaperPrac) +
                        std::abs(mc - kPaperMopacC) +
                        std::abs(md - kPaperMopacD)) /
                       3.0;
    e2e.has_paper = true;
    e2e.has_insts = true;
    e2e.has_points = true;
}

// ---------------------------------------------------------------------
// Per-layer report.

void
reportLayers(Report &rep, const LayerTotals &tot)
{
    const Tracer &tr = tot.tracer;
    const PhaseTimes &ph = tr.phases();
    const double units =
        static_cast<double>(std::max<std::uint64_t>(1, tot.units));
    const double builds =
        static_cast<double>(std::max(1u, ph.constructions));
    const LayerStats &sim = tr.stats(Layer::kSim);
    const LayerStats &loop = tr.stats(Layer::kLoop);
    const LayerStats &core = tr.stats(Layer::kCore);
    const LayerStats &mc = tr.stats(Layer::kMc);
    const LayerStats &mit = tr.stats(Layer::kMitigation);
    const LayerStats &wl = tr.stats(Layer::kWorkload);
    const SimProfile &p = tot.prof;
    const LoopCounters &lc = tot.loop;
    const SimCounts &sc = tot.sim_counts;
    const SweepTotals &st = tot.sweep;
    const EngineStats &es = tot.engine;

    // Self times: every traced nanosecond lands in exactly one layer;
    // what no span covers is reported as the unaccounted remainder.
    const double wall = static_cast<double>(ph.wall_ns);
    const double sim_self =
        static_cast<double>(sim.selfNs() + loop.selfNs());
    const double core_self = static_cast<double>(core.selfNs());
    const double mc_self = static_cast<double>(mc.selfNs());
    const double mit_self = static_cast<double>(mit.selfNs());
    const double wl_self =
        static_cast<double>(ph.workload_setup_ns + wl.selfNs());
    const double unaccounted =
        wall - sim_self - core_self - mc_self - mit_self - wl_self;
    rep.note(format("traced wall {:.3f} s: self sim {:.3f} core {:.3f} mc "
                    "{:.3f} mitigation {:.3f} workload {:.3f} unaccounted "
                    "{:.3f} (s)",
                    wall * 1e-9, sim_self * 1e-9, core_self * 1e-9,
                    mc_self * 1e-9, mit_self * 1e-9, wl_self * 1e-9,
                    unaccounted * 1e-9));
    rep.note(format("runner: {} points over {:.3f} s of sweeps, idle tail "
                    "{:.3f} s",
                    st.points, st.wall_s, st.tail_s));

    auto pct = [&](double ns) { return 100.0 * ratio(ns, wall); };
    auto per_unit = [&](std::uint64_t n) {
        return static_cast<double>(n) / units;
    };
    auto ms_per_build = [&](std::uint64_t ns) {
        return 1e-6 * static_cast<double>(ns) / builds;
    };
    auto count = [&](const char *name, double v) {
        rep.metric(name, v, "count");
    };
    auto frac = [&](const char *name, double v) {
        rep.metric(name, v, "frac");
    };
    const std::uint64_t acts = tot.mitigation_acts;

    rep.metric("sim.construct_ms", ms_per_build(ph.construct_ns), "ms");
    count("sim.construct_minflt",
          static_cast<double>(ph.construct_minflt) / builds);
    rep.metric("sim.teardown_ms", ms_per_build(ph.teardown_ns), "ms");
    rep.metric("sim.loop_self_ns_per_cycle",
               ratio(loop.selfNs(), lc.cycles_executed), "ns/cycle");
    count("sim.cycles_executed", per_unit(lc.cycles_executed));
    count("sim.cycles_skipped", per_unit(lc.cycles_skipped));
    frac("sim.skip_frac", ratio(lc.cycles_skipped,
                                lc.cycles_executed + lc.cycles_skipped));
    rep.metric("sim.event_probes_per_cycle",
               ratio(lc.event_probes, lc.cycles_executed), "count/cycle");
    rep.metric("sim.self_pct", pct(sim_self), "%");

    frac("runner.busy_frac",
         ratio(st.point_s, static_cast<double>(st.jobs) * st.wall_s));
    frac("runner.tail_frac", ratio(st.tail_s, st.wall_s));
    count("runner.points", per_unit(st.points));
    count("runner.points_failed", per_unit(st.points_failed));

    rep.metric("workload.setup_ms", ms_per_build(ph.workload_setup_ns),
               "ms");
    count("workload.next_calls", per_unit(wl.calls));
    rep.metric("workload.ns_per_record", ratio(wl.total_ns, wl.calls),
               "ns/record");
    rep.metric("workload.self_pct", pct(wl_self), "%");

    count("core.tick_calls", per_unit(core.calls));
    rep.metric("core.ns_per_tick", ratio(core.total_ns, core.calls),
               "ns/tick");
    rep.metric("core.self_pct", pct(core_self), "%");
    frac("core.active_frac", ratio(p.core_active_ticks, p.core_ticks));
    rep.metric("core.issue_steps_per_scan",
               ratio(p.core_issue_steps, p.core_issue_scans), "count/scan");

    count("mc.tick_calls", per_unit(mc.calls));
    rep.metric("mc.ns_per_tick", ratio(mc.total_ns, mc.calls), "ns/tick");
    rep.metric("mc.self_pct", pct(mc_self), "%");
    count("mc.sched_passes", per_unit(p.mc_sched_passes));
    rep.metric("mc.cas_cands_per_pass",
               ratio(p.mc_cas_candidates, p.mc_sched_passes), "count/pass");
    rep.metric("mc.act_cands_per_pass",
               ratio(p.mc_act_candidates, p.mc_sched_passes), "count/pass");
    count("mc.queue_depth_mean",
          ratio(p.mc_queue_cycles, p.mc_sched_passes));
    rep.metric("mc.mark_walks_per_pass",
               ratio(p.mc_mark_walks, p.mc_sched_passes), "count/pass");
    rep.metric("mc.read_latency_ns",
               ratio(sc.latency_weighted, static_cast<double>(sc.reads)),
               "ns");

    count("dram.acts", static_cast<double>(sc.acts));
    count("dram.reads", static_cast<double>(sc.reads));
    count("dram.writes", static_cast<double>(sc.writes));
    count("dram.refs", static_cast<double>(sc.refs));
    count("dram.rfms", static_cast<double>(sc.rfms));
    count("dram.alerts", static_cast<double>(sc.alerts));
    frac("dram.rbhr",
         ratio(sc.hit_cas, static_cast<double>(sc.reads + sc.writes)));
    rep.metric("dram.checker_ns_per_act",
               ratio(tot.checker_ns, tot.checker_acts), "ns/act");

    count("mitigation.act_calls", per_unit(acts));
    rep.metric("mitigation.self_pct", pct(mit_self), "%");
    rep.metric("mitigation.ns_per_act", ratio(mit.total_ns, acts),
               "ns/act");
    rep.metric("mitigation.alerts_per_kact",
               1000.0 * ratio(es.alerts_requested, acts), "count/kact");
    rep.metric("mitigation.mitigations_per_alert",
               ratio(es.mitigations, es.alerts_requested), "count/alert");
    frac("mitigation.srq_coalesce_frac",
         ratio(es.srq_coalesced, es.srq_insertions + es.srq_coalesced));
    frac("mitigation.precu_frac", ratio(tot.precus, tot.pres));

    rep.metric("trace.unaccounted_pct", pct(unaccounted), "%");
    const double untraced = static_cast<double>(tot.untraced_wall_ns);
    rep.metric("trace_overhead_pct",
               100.0 * ratio(wall - untraced, untraced), "%");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    using Fn = void (*)(const Options &, Report &, std::uint64_t &, E2e &,
                        LayerTotals &);
    const std::map<std::string, Fn> workloads = {
        {"busy_8core", runBusy},
        {"attack_abo", runAttack},
        {"exhibit_sweep", runSweep},
    };
    const auto it = workloads.find(opt.workload);
    if (it == workloads.end()) {
        usage("unknown workload '" + opt.workload + "'");
    }
    std::cout << "perfbench workload=" << opt.workload << " seed=" << opt.seed
              << " seconds=" << opt.seconds << " trace=" << opt.trace
              << (opt.smoke ? " smoke" : "") << "\n";

    Report report;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    E2e e2e;
    auto tot = std::make_unique<LayerTotals>();
    try {
        // panic() inside the simulator throws instead of aborting.
        const ErrorTrap trap;
        it->second(opt, report, digest, e2e, *tot);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }
    if (opt.trace) {
        reportLayers(report, *tot);
        if (!opt.spans.empty()) {
            std::ofstream out(opt.spans);
            tot->tracer.writeJson(out);
            if (!out) {
                std::cerr << "perfbench: cannot write " << opt.spans << "\n";
                return 1;
            }
        }
    } else {
        reportE2e(report, e2e);
    }
    report.print(digest);
    return 0;
}
