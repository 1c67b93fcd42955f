/**
 * @file
 * Benchmark-side tracing implementation (see tracing.hh).
 */

#include "tracing.hh"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstring>

#include "dram/checker.hh"

namespace mopac::perfbench
{

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::kSim: return "sim";
      case Layer::kLoop: return "loop";
      case Layer::kCore: return "core";
      case Layer::kMc: return "mc";
      case Layer::kMitigation: return "mitigation";
      case Layer::kWorkload: return "workload";
    }
    return "?";
}

std::uint64_t
nsBetween(wallclock::TimePoint start, wallclock::TimePoint end)
{
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count();
    return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

Tracer::Tracer() : origin_(wallclock::now()) {}

void
Tracer::push(Layer layer)
{
    if (depth_ >= stack_.size()) {
        // Deeper nesting than any call path of the simulator has; the
        // span is still accounted, just not as a parent.
        return;
    }
    stack_[depth_++] = layer;
}

void
Tracer::pop(Layer layer, std::uint64_t ns)
{
    if (depth_ > 0) {
        --depth_;
    }
    LayerStats &s = stats_[static_cast<unsigned>(layer)];
    ++s.calls;
    s.total_ns += ns;
    const unsigned bucket =
        ns < 2 ? 0u
               : std::min<unsigned>(static_cast<unsigned>(
                                        std::bit_width(ns) - 1),
                                    static_cast<unsigned>(s.hist.size() - 1));
    ++s.hist[bucket];
    if (depth_ > 0) {
        stats_[static_cast<unsigned>(stack_[depth_ - 1])].child_ns += ns;
    }
}

double
Tracer::secondsNow() const
{
    return wallclock::secondsSince(origin_);
}

void
Tracer::writeJson(std::ostream &os) const
{
    os << "{\"layers\": {";
    for (unsigned l = 0; l < kNumLayers; ++l) {
        const LayerStats &s = stats_[l];
        os << (l ? ", " : "") << '"' << layerName(static_cast<Layer>(l))
           << "\": {\"calls\": " << s.calls
           << ", \"total_ns\": " << s.total_ns
           << ", \"self_ns\": " << s.selfNs() << ", \"hist_log2_ns\": [";
        for (std::size_t b = 0; b < s.hist.size(); ++b) {
            os << (b ? ", " : "") << s.hist[b];
        }
        os << "]}";
    }
    os << "},\n\"phases\": {\"wall_ns\": " << phases_.wall_ns
       << ", \"workload_setup_ns\": " << phases_.workload_setup_ns
       << ", \"construct_ns\": " << phases_.construct_ns
       << ", \"construct_minflt\": " << phases_.construct_minflt
       << ", \"teardown_ns\": " << phases_.teardown_ns
       << ", \"constructions\": " << phases_.constructions << "},\n";
    os << "\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const CoarseSpan &sp = spans_[i];
        os << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << sp.name
           << "\", \"id\": " << sp.id << ", \"worker\": " << sp.worker
           << ", \"start_s\": " << sp.start_s
           << ", \"end_s\": " << sp.end_s << '}';
    }
    os << "]}\n";
}

namespace
{

/** Append one checker-visible event to the captured stream. */
void
record(std::vector<CheckerEvent> &events, CheckerEvent::Kind kind,
       unsigned chip, unsigned bank, std::uint32_t row,
       std::uint32_t row_end, Cycle now)
{
    CheckerEvent ev;
    ev.kind = kind;
    ev.chip = chip;
    ev.bank = bank;
    ev.row = row;
    ev.row_end = row_end;
    ev.now = now;
    events.push_back(ev);
}

} // namespace

bool
TimedMitigator::selectForUpdate(unsigned bank, std::uint32_t row,
                                Cycle now)
{
    const LayerSpan span(tracer_, Layer::kMitigation);
    return inner_.selectForUpdate(bank, row, now);
}

void
TimedMitigator::onActivate(unsigned bank, std::uint32_t row, Cycle now)
{
    // The device updates its checker right before this call.
    record(events_, CheckerEvent::Kind::kAct, 0, bank, row, 0, now);
    ++act_calls_;
    const LayerSpan span(tracer_, Layer::kMitigation);
    inner_.onActivate(bank, row, now);
}

void
TimedMitigator::onPrechargeUpdate(unsigned bank, std::uint32_t row,
                                  Cycle now)
{
    const LayerSpan span(tracer_, Layer::kMitigation);
    inner_.onPrechargeUpdate(bank, row, now);
}

void
TimedMitigator::onPrecharge(unsigned bank, std::uint32_t row, Cycle now,
                            Cycle open_cycles)
{
    const LayerSpan span(tracer_, Layer::kMitigation);
    inner_.onPrecharge(bank, row, now, open_cycles);
}

void
TimedMitigator::onRefreshSweep(std::uint32_t row_begin,
                               std::uint32_t row_end)
{
    record(events_, CheckerEvent::Kind::kSweep, 0, 0, row_begin, row_end,
           device_.now());
    const LayerSpan span(tracer_, Layer::kMitigation);
    inner_.onRefreshSweep(row_begin, row_end);
}

void
TimedMitigator::onRefresh(Cycle now)
{
    const LayerSpan span(tracer_, Layer::kMitigation);
    inner_.onRefresh(now);
}

void
TimedMitigator::onRfm(Cycle now)
{
    const LayerSpan span(tracer_, Layer::kMitigation);
    inner_.onRfm(now);
}

void
TimedMitigator::onNeighborRefresh(unsigned bank, std::uint32_t row,
                                  unsigned chip)
{
    // One victim refresh of aggressor A reaches here as the in-range
    // rows of A-2, A-1, A+1, A+2, back to back, right after the device
    // told its checker about A.
    record(events_, CheckerEvent::Kind::kNeighbor, chip, bank, row, 0,
           device_.now());
    const LayerSpan span(tracer_, Layer::kMitigation);
    inner_.onNeighborRefresh(bank, row, chip);
}

namespace
{

/**
 * Length of the neighbor group starting at @p i if it is the victim
 * set of aggressor @p aggressor, else 0.
 */
std::size_t
matchGroup(const std::vector<CheckerEvent> &events, std::size_t i,
           std::int64_t aggressor, std::uint32_t rows)
{
    if (aggressor < 0 || aggressor >= static_cast<std::int64_t>(rows)) {
        return 0;
    }
    const CheckerEvent &head = events[i];
    std::size_t len = 0;
    for (const int d : {-2, -1, 1, 2}) {
        const std::int64_t v = aggressor + d;
        if (v < 0 || v >= static_cast<std::int64_t>(rows)) {
            continue;
        }
        const std::size_t k = i + len;
        if (k >= events.size()) {
            return 0;
        }
        const CheckerEvent &ev = events[k];
        if (ev.kind != CheckerEvent::Kind::kNeighbor ||
            ev.bank != head.bank || ev.chip != head.chip ||
            ev.now != head.now || ev.row != static_cast<std::uint32_t>(v)) {
            return 0;
        }
        ++len;
    }
    return len;
}

} // namespace

CheckerReplay
replayChecker(const std::vector<CheckerEvent> &events, const Geometry &geo,
              std::uint32_t trh)
{
    CheckerReplay out;
    SecurityChecker checker(geo.banks_per_subchannel, geo.rows_per_bank,
                            geo.chips, trh);
    const auto start = wallclock::now();
    bool ok = true;
    for (std::size_t i = 0; i < events.size() && ok; ++i) {
        const CheckerEvent &ev = events[i];
        switch (ev.kind) {
          case CheckerEvent::Kind::kAct:
            checker.onActivate(ev.bank, ev.row, ev.now);
            ++out.acts;
            break;
          case CheckerEvent::Kind::kSweep:
            checker.onSweep(ev.row, ev.row_end);
            break;
          case CheckerEvent::Kind::kNeighbor: {
            // The head is A-2 unless A sits within two rows of an edge.
            const auto v0 = static_cast<std::int64_t>(ev.row);
            std::size_t len = 0;
            std::int64_t aggressor = 0;
            for (const std::int64_t cand : {v0 + 2, v0 + 1, v0 - 1}) {
                len = matchGroup(events, i, cand, geo.rows_per_bank);
                if (len > 0) {
                    aggressor = cand;
                    break;
                }
            }
            if (len == 0) {
                ok = false;
                break;
            }
            checker.onVictimRefresh(ev.chip, ev.bank,
                                    static_cast<std::uint32_t>(aggressor),
                                    ev.now);
            i += len - 1;
            break;
          }
        }
    }
    out.ns = nsBetween(start, wallclock::now());
    out.parsed = ok;
    out.max_unmitigated = checker.maxUnmitigated();
    out.violations = checker.violations();
    return out;
}

namespace
{

constexpr Cycle
alignUpPow2(Cycle c, Cycle align)
{
    return (c + (align - 1)) & ~(align - 1);
}

// The aligned poll periods of System::runTo(); skips are capped at
// them so the executed-cycle count matches the library loop.
constexpr Cycle kWatchdogPollPeriod = 1024;
constexpr Cycle kAbortPollPeriod = 16384;

/** Tick one controller, timing it only when it is past its wakeup. */
void
tickController(Controller &mc, Cycle now, Tracer &tracer)
{
    if (now < mc.nextWakeAt()) {
        mc.tick(now); // certified no-op: left in the loop's self time
        return;
    }
    const LayerSpan span(tracer, Layer::kMc);
    mc.tick(now);
}

} // namespace

RunResult
tracedSystemRun(System &system, Tracer &tracer, LoopCounters &loop)
{
    const SystemConfig &cfg = system.config();
    Cpu &cpu = system.cpu();
    const std::uint64_t max_cycles =
        cfg.max_cycles ? cfg.max_cycles
                       : (cfg.warmup_insts + cfg.insts_per_core) * 400 +
                             10000000;
    const bool event_mode = cfg.engine == SimEngine::kEvent;
    const unsigned num_mc = system.numSubchannels();
    std::vector<std::uint8_t> measuring(cfg.num_cores, 0);
    unsigned measure_pending = cfg.num_cores;
    bool timed_out = false;
    Cycle now = 0;

    {
        const LayerSpan root(tracer, Layer::kLoop);
        while (!cpu.allDone()) {
            bool cpu_active = false;
            {
                const LayerSpan span(tracer, Layer::kCore);
                cpu_active = cpu.tick(now);
            }
            Cycle mc_next = kNeverCycle;
            for (unsigned s = 0; s < num_mc; ++s) {
                Controller &mc = system.controller(s);
                tickController(mc, now, tracer);
                mc_next = std::min(mc_next, mc.nextWakeAt());
            }
            if (measure_pending > 0) {
                for (unsigned i = 0; i < cfg.num_cores; ++i) {
                    if (!measuring[i] &&
                        cpu.core(i).retiredInsts() >= cfg.warmup_insts) {
                        cpu.core(i).startMeasurement(now);
                        measuring[i] = 1;
                        --measure_pending;
                    }
                }
            }
            ++now;
            ++loop.cycles_executed;
            if (now >= max_cycles) {
                timed_out = true;
                break;
            }
            if (!event_mode || cpu_active) {
                continue;
            }
            ++loop.event_probes;
            Cycle next = mc_next;
            if (next > now) {
                next = std::min(next, cpu.nextSelfEventAt(now - 1));
            }
            if (next > now && cfg.watchdog_cycles > 0) {
                next = std::min(next, alignUpPow2(now, kWatchdogPollPeriod));
            }
            if (next > now) {
                next = std::min(next, alignUpPow2(now, kAbortPollPeriod));
            }
            if (next <= now) {
                continue;
            }
            if (next >= max_cycles) {
                loop.cycles_skipped += max_cycles - now;
                now = max_cycles;
                timed_out = true;
                break;
            }
            loop.cycles_skipped += next - now;
            now = next;
        }
    }

    for (unsigned s = 0; s < num_mc; ++s) {
        system.subchannel(s).checker().finalizeEpoch();
    }
    RunResult res = system.collectStats(now);
    res.timed_out = timed_out;
    res.ipcs = cpu.measuredIpcs();
    return res;
}

RunResult
tracedAttackRun(System &system, AttackPattern &pattern, Cycle duration,
                unsigned max_inflight, Tracer &tracer, LoopCounters &loop)
{
    Request pending{};
    bool has_pending = false;
    const unsigned num_mc = system.numSubchannels();
    {
        const LayerSpan root(tracer, Layer::kLoop);
        for (Cycle now = 0; now < duration; ++now) {
            for (;;) {
                if (!has_pending) {
                    const LayerSpan span(tracer, Layer::kWorkload);
                    pending = pattern.next();
                    has_pending = true;
                }
                const DramCoord coord =
                    system.addressMap().decode(pending.line_addr);
                Controller &mc = system.controller(coord.subchannel);
                if (mc.readQueueDepth() >= max_inflight ||
                    !mc.enqueue(pending, now)) {
                    break;
                }
                has_pending = false;
            }
            for (unsigned s = 0; s < num_mc; ++s) {
                tickController(system.controller(s), now, tracer);
            }
            ++loop.cycles_executed;
        }
    }
    return system.collectStats(duration);
}

namespace
{

std::uint64_t
bitsOf(double d)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

/** Every simulated field of @p r as raw 64-bit words, doubles as bits. */
std::vector<std::uint64_t>
fieldsOf(const RunResult &r)
{
    std::vector<std::uint64_t> out{
        r.ipcs.size(), r.cycles, r.timed_out ? 1u : 0u, r.acts, r.reads,
        r.writes, r.refs, r.rfms, r.alerts, r.max_unmitigated, r.violations,
        r.faults_injected, r.counter_updates, r.srq_insertions,
        r.mitigations, r.ref_drains, r.epochs, bitsOf(r.rbhr),
        bitsOf(r.apri), bitsOf(r.avg_read_latency_ns), bitsOf(r.act64),
        bitsOf(r.act200)};
    for (const double ipc : r.ipcs) {
        out.push_back(bitsOf(ipc));
    }
    return out;
}

} // namespace

bool
sameRunResult(const RunResult &a, const RunResult &b)
{
    return fieldsOf(a) == fieldsOf(b);
}

std::uint64_t
digestRunResult(std::uint64_t h, const RunResult &r)
{
    for (const std::uint64_t v : fieldsOf(r)) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

std::uint64_t
threadMinorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    return static_cast<std::uint64_t>(ru.ru_minflt);
}

} // namespace mopac::perfbench
