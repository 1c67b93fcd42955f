/**
 * @file
 * Benchmark-side tracing of the simulator's layers.
 *
 * Everything here sits outside src/: spans are taken around calls into
 * each module's public functions, never inside them.  The pieces are
 *
 *  - Tracer: per-layer call count, total and child nanoseconds and a
 *    log2 latency histogram, plus coarse spans (construction, run,
 *    teardown, sweep points) kept in memory and written at the end;
 *  - TimedTraceSource / TimedMitigator: timing decorators the traced
 *    run hands to System (traces) and SubChannel::setMitigator
 *    (engines); the mitigation decorator also captures the ACT, sweep
 *    and victim-refresh stream for the security-checker replay;
 *  - tracedSystemRun / tracedAttackRun: benchmark-side copies of
 *    System::run() and AttackRunner::run() that time Cpu::tick and
 *    Controller::tick and must reproduce the untraced results exactly.
 *
 * Self time of a layer is its span total minus the spans of the layers
 * called from inside it: the workload is a child of the core, the
 * mitigation engine a child of the controller, and core and controller
 * are children of the run loop.
 */

#ifndef MOPAC_PERFBENCH_TRACING_HH
#define MOPAC_PERFBENCH_TRACING_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/wallclock.hh"
#include "core/trace.hh"
#include "dram/device.hh"
#include "dram/mitigator.hh"
#include "sim/attack.hh"
#include "sim/system.hh"

namespace mopac::perfbench
{

/**
 * Layers timed per call.  kSim covers System construction, teardown
 * and result collection; kLoop is the run loop's own root span.
 */
enum class Layer : unsigned
{
    kSim,
    kLoop,
    kCore,
    kMc,
    kMitigation,
    kWorkload,
};

inline constexpr unsigned kNumLayers = 6;

/** Printable layer name ("loop", "core", ...). */
const char *layerName(Layer layer);

/** Nanoseconds between two wall-clock points. */
std::uint64_t nsBetween(wallclock::TimePoint start,
                        wallclock::TimePoint end);

/** Aggregate of one layer's timed calls. */
struct LayerStats
{
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    /** Time covered by spans of layers called from inside this one. */
    std::uint64_t child_ns = 0;
    /** Bucket b counts calls of [2^b, 2^(b+1)) ns (bucket 0: < 2 ns). */
    std::array<std::uint64_t, 40> hist{};

    std::uint64_t selfNs() const { return total_ns - child_ns; }
};

/** A coarse span: one construction, run, teardown or sweep point. */
struct CoarseSpan
{
    std::string name;
    std::uint64_t id = 0;
    unsigned worker = 0;
    double start_s = 0.0;
    double end_s = 0.0;
};

/** Phase totals of traced runs, nanoseconds. */
struct PhaseTimes
{
    std::uint64_t workload_setup_ns = 0;
    std::uint64_t construct_ns = 0;
    std::uint64_t construct_minflt = 0;
    std::uint64_t teardown_ns = 0;
    /** Wall time of the traced runs end to end. */
    std::uint64_t wall_ns = 0;
    unsigned constructions = 0;
};

/** Per-layer accounting for one thread's traced runs. */
class Tracer
{
  public:
    Tracer();

    /** Innermost open layer as an integer, or -1 when none is open. */
    int current() const
    {
        return depth_ == 0 ? -1 : static_cast<int>(stack_[depth_ - 1]);
    }

    void push(Layer layer);
    void pop(Layer layer, std::uint64_t ns);

    const LayerStats &stats(Layer layer) const
    {
        return stats_[static_cast<unsigned>(layer)];
    }

    /** Seconds since this tracer was created (coarse-span clock). */
    double secondsNow() const;

    void addSpan(CoarseSpan span) { spans_.push_back(std::move(span)); }

    PhaseTimes &phases() { return phases_; }
    const PhaseTimes &phases() const { return phases_; }

    /** Write spans and per-layer histograms as one JSON document. */
    void writeJson(std::ostream &os) const;

  private:
    wallclock::TimePoint origin_;
    std::array<LayerStats, kNumLayers> stats_{};
    std::array<Layer, 16> stack_{};
    unsigned depth_ = 0;
    std::vector<CoarseSpan> spans_;
    PhaseTimes phases_;
};

/**
 * Times one call into @p layer.  A call made while the same layer is
 * already open (an engine re-entering itself through a victim refresh)
 * is not timed again: its time already belongs to the open span.
 */
class LayerSpan
{
  public:
    LayerSpan(Tracer &tracer, Layer layer)
        : tracer_(tracer), layer_(layer),
          active_(tracer.current() != static_cast<int>(layer))
    {
        if (active_) {
            tracer_.push(layer_);
            start_ = wallclock::now();
        }
    }

    ~LayerSpan()
    {
        if (active_) {
            tracer_.pop(layer_, nsBetween(start_, wallclock::now()));
        }
    }

    LayerSpan(const LayerSpan &) = delete;
    LayerSpan &operator=(const LayerSpan &) = delete;

  private:
    Tracer &tracer_;
    Layer layer_;
    bool active_;
    wallclock::TimePoint start_{};
};

/** Times every next() of a wrapped trace source as the workload layer. */
class TimedTraceSource : public TraceSource
{
  public:
    TimedTraceSource(TraceSource &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    TraceRecord
    next() override
    {
        const LayerSpan span(tracer_, Layer::kWorkload);
        return inner_.next();
    }

    void saveState(Serializer &ser) const override { inner_.saveState(ser); }
    void loadState(Deserializer &des) override { inner_.loadState(des); }

  private:
    TraceSource &inner_;
    Tracer &tracer_;
};

/** One event the security checker saw, as the mitigation engine saw it. */
struct CheckerEvent
{
    enum class Kind : std::uint8_t
    {
        kAct,
        kSweep,
        kNeighbor,
    };
    Kind kind = Kind::kAct;
    unsigned chip = 0;
    unsigned bank = 0;
    /** ACT / neighbor: the row; sweep: first row. */
    std::uint32_t row = 0;
    /** Sweep: one past the last row. */
    std::uint32_t row_end = 0;
    Cycle now = 0;
};

/**
 * Times every call into a wrapped engine as the mitigation layer and
 * records the ACT / refresh-sweep / neighbor-refresh stream that the
 * sub-channel's SecurityChecker also sees, in the same order.
 */
class TimedMitigator : public Mitigator
{
  public:
    TimedMitigator(Mitigator &inner, const SubChannel &device,
                   Tracer &tracer)
        : inner_(inner), device_(device), tracer_(tracer)
    {
    }

    std::string name() const override { return inner_.name(); }

    bool selectForUpdate(unsigned bank, std::uint32_t row,
                         Cycle now) override;
    void onActivate(unsigned bank, std::uint32_t row, Cycle now) override;
    void onPrechargeUpdate(unsigned bank, std::uint32_t row,
                           Cycle now) override;
    void onPrecharge(unsigned bank, std::uint32_t row, Cycle now,
                     Cycle open_cycles) override;
    void onRefreshSweep(std::uint32_t row_begin,
                        std::uint32_t row_end) override;
    void onRefresh(Cycle now) override;
    void onRfm(Cycle now) override;
    void onNeighborRefresh(unsigned bank, std::uint32_t row,
                           unsigned chip) override;

    const EngineStats &engineStats() const override
    {
        return inner_.engineStats();
    }

    void saveState(Serializer &ser) const override { inner_.saveState(ser); }
    void loadState(Deserializer &des) override { inner_.loadState(des); }

    /** Hand over the captured stream (the decorator keeps none). */
    std::vector<CheckerEvent> takeEvents() { return std::move(events_); }
    std::uint64_t actCalls() const { return act_calls_; }

  private:
    Mitigator &inner_;
    const SubChannel &device_;
    Tracer &tracer_;
    // Measurement state of the benchmark, not of the engine: a
    // snapshot saves and restores only the wrapped engine.
    std::vector<CheckerEvent> events_; // mopac-lint: allow(serial-drift)
    std::uint64_t act_calls_ = 0;      // mopac-lint: allow(serial-drift)
};

/** Outcome of replaying one captured stream into a fresh checker. */
struct CheckerReplay
{
    bool parsed = false;
    std::uint32_t max_unmitigated = 0;
    std::uint64_t violations = 0;
    std::uint64_t acts = 0;
    std::uint64_t ns = 0;
};

/**
 * Replay @p events into a fresh SecurityChecker of the given shape and
 * time the replay.  Neighbor refreshes are folded back into the victim
 * refresh of their aggressor row (the four rows at distance 1 and 2).
 */
CheckerReplay replayChecker(const std::vector<CheckerEvent> &events,
                            const Geometry &geo, std::uint32_t trh);

/** Run-loop counters of a traced run (the profile's loop fields). */
struct LoopCounters
{
    std::uint64_t cycles_executed = 0;
    std::uint64_t cycles_skipped = 0;
    std::uint64_t event_probes = 0;
};

/**
 * Drive @p system to completion through a copy of the event engine's
 * run loop built on public calls only (Cpu::tick, Controller::tick,
 * nextWakeAt, nextSelfEventAt), timing the core and every controller
 * tick that is past its wakeup, and collect the RunResult the way
 * System::finishRun() does.  Must equal System::run() bit for bit.
 */
RunResult tracedSystemRun(System &system, Tracer &tracer,
                          LoopCounters &loop);

/**
 * Copy of AttackRunner::run() on a memory-only System, timing the
 * pattern (workload layer) and the controller ticks; returns the
 * System's aggregate statistics at the end.
 */
RunResult tracedAttackRun(System &system, AttackPattern &pattern,
                          Cycle duration, unsigned max_inflight,
                          Tracer &tracer, LoopCounters &loop);

/** Exact equality of every RunResult field (doubles bit for bit). */
bool sameRunResult(const RunResult &a, const RunResult &b);

/** Fold every simulated field of @p r into an FNV-1a digest. */
std::uint64_t digestRunResult(std::uint64_t h, const RunResult &r);

/** Minor page faults of the calling thread so far. */
std::uint64_t threadMinorFaults();

} // namespace mopac::perfbench

#endif // MOPAC_PERFBENCH_TRACING_HH
