/**
 * @file
 * Per-cycle core reference for the Cpu's wake bounds and fast-forward
 * windows.
 *
 * The production Cpu skips the ticks of a sleeping core and lets a
 * core that made progress fast-forward through the following
 * retire/fetch-only cycles in one call.  Both run-loop engines share
 * the Cpu, so the tick engine is no reference for either.  The
 * ReferenceLoop below is System::runTo's loop body with every core
 * ticked through Core::tick on every cycle -- no wake bounds, no
 * windows -- driving the same System's controllers.  A production run
 * must match it on the RunResult, and on the snapshot bytes (System
 * state plus trace cursors) at every pause: runTo(stop_at) at odd
 * cycles that cut windows short, save, load into a fresh System,
 * resume.
 *
 * After the run ends, cores may have fast-forwarded past the final
 * cycle (nothing reads their state there), so end-of-run snapshots
 * are not compared; the RunResult is.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.hh"
#include "core/cpu.hh"
#include "sim/system.hh"
#include "workload/synth.hh"

namespace mopac
{
namespace
{

/** Snapshot section holding the trace cursors. */
constexpr std::uint32_t kTagTraces = 0x54524143; // 'TRAC'

/** A System plus the traces feeding it (the map outlives them). */
struct Sim
{
    Sim(const SystemConfig &cfg, const std::string &workload)
        : map(std::make_unique<AddressMap>(cfg.geometry)),
          owned(makeWorkloadTraces(workload, *map, cfg.num_cores,
                                   cfg.seed))
    {
        for (auto &t : owned) {
            traces.push_back(t.get());
        }
        system = std::make_unique<System>(cfg, traces);
    }

    void
    saveTraces(Serializer &ser) const
    {
        ser.begin(kTagTraces);
        ser.putU32(static_cast<std::uint32_t>(traces.size()));
        for (const TraceSource *t : traces) {
            t->saveState(ser);
        }
        ser.end();
    }

    /** Production snapshot: System::transfer plus trace cursors. */
    std::vector<std::uint8_t>
    snapshot() const
    {
        Serializer ser;
        System::transfer(std::as_const(*system), ser);
        saveTraces(ser);
        return ser.finish(FileKind::kSnapshot, 0);
    }

    void
    restore(std::vector<std::uint8_t> image)
    {
        Deserializer des(std::move(image), FileKind::kSnapshot, 0);
        System::transfer(*system, des);
        des.begin(kTagTraces);
        EXPECT_EQ(des.getU32(), traces.size());
        for (TraceSource *t : traces) {
            t->loadState(des);
        }
        des.end();
        des.finish();
    }

    std::unique_ptr<AddressMap> map;
    std::vector<std::unique_ptr<TraceSource>> owned;
    std::vector<TraceSource *> traces;
    std::unique_ptr<System> system;
};

/**
 * System::runTo's loop body with every core ticked on every cycle.
 * It keeps its own run-loop state (the System's stays at cycle 0) and
 * writes it into the System::saveState layout.
 */
class ReferenceLoop
{
  public:
    explicit ReferenceLoop(Sim &sim)
        : sim_(sim), sys_(*sim.system), cfg_(sys_.config()),
          measuring_(cfg_.num_cores, 0)
    {
    }

    /** Same contract as System::runTo. */
    bool
    runTo(Cycle stop_at)
    {
        const std::uint64_t max_cycles =
            cfg_.max_cycles ? cfg_.max_cycles
                            : (cfg_.warmup_insts + cfg_.insts_per_core) *
                                      400 +
                                  10000000;
        Cpu &cpu = sys_.cpu();
        while (!allDone()) {
            if (now_ >= stop_at) {
                return false;
            }
            for (unsigned i = 0; i < cfg_.num_cores; ++i) {
                cpu.core(i).tick(now_);
            }
            for (unsigned s = 0; s < sys_.numSubchannels(); ++s) {
                sys_.controller(s).tick(now_);
            }
            for (unsigned i = 0; i < cfg_.num_cores; ++i) {
                if (!measuring_[i] &&
                    cpu.core(i).retiredInsts() >= cfg_.warmup_insts) {
                    cpu.core(i).startMeasurement(now_);
                    measuring_[i] = 1;
                }
            }
            if (cfg_.watchdog_cycles > 0 &&
                (now_ & (Cpu::kPollPeriod - 1)) == 0) {
                const std::uint64_t retired = totalRetired();
                if (retired != wd_last_retired_) {
                    wd_last_retired_ = retired;
                    wd_last_progress_ = now_;
                }
            }
            ++now_;
            if (now_ >= max_cycles) {
                timed_out_ = true;
                break;
            }
        }
        return true;
    }

    RunResult
    finishRun()
    {
        for (unsigned s = 0; s < sys_.numSubchannels(); ++s) {
            sys_.subchannel(s).checker().finalizeEpoch();
        }
        RunResult res = sys_.collectStats(now_);
        res.timed_out = timed_out_;
        res.ipcs = sys_.cpu().measuredIpcs();
        return res;
    }

    /** The snapshot System::transfer would write for this state. */
    std::vector<std::uint8_t>
    snapshot()
    {
        Serializer ser;
        ser.begin(0x5359u); // 'SY'
        ser.putStr(sys_.engine(0).name());
        ser.putU32(sys_.numSubchannels());
        ser.putU8(cfg_.faults.enabled() ? 1 : 0);
        ser.putU8(1);
        for (unsigned s = 0; s < sys_.numSubchannels(); ++s) {
            SubChannel &dev = sys_.subchannel(s);
            SubChannel::transfer(std::as_const(dev), ser);
            if (cfg_.faults.enabled()) {
                FaultInjector::transfer(std::as_const(*dev.faults()), ser);
            }
            sys_.engine(s).saveState(ser);
            Controller::transfer(std::as_const(sys_.controller(s)), ser);
        }
        Cpu::transfer(std::as_const(sys_.cpu()), ser);
        ser.putU64(now_);
        ser.putU8(timed_out_ ? 1 : 0);
        ser.putVecU8(measuring_);
        ser.putU64(wd_last_retired_);
        ser.putU64(wd_last_progress_);
        ser.end();
        sim_.saveTraces(ser);
        return ser.finish(FileKind::kSnapshot, 0);
    }

  private:
    bool
    allDone() const
    {
        for (unsigned i = 0; i < cfg_.num_cores; ++i) {
            if (!sys_.cpu().core(i).done()) {
                return false;
            }
        }
        return true;
    }

    std::uint64_t
    totalRetired() const
    {
        std::uint64_t retired = 0;
        for (unsigned i = 0; i < cfg_.num_cores; ++i) {
            retired += sys_.cpu().core(i).retiredInsts();
        }
        return retired;
    }

    Sim &sim_;
    System &sys_;
    const SystemConfig &cfg_;
    Cycle now_ = 0;
    bool timed_out_ = false;
    std::vector<std::uint8_t> measuring_;
    std::uint64_t wd_last_retired_ = 0;
    Cycle wd_last_progress_ = 0;
};

/** Every RunResult field must match bit-for-bit (doubles included). */
void
expectSameRun(const RunResult &a, const RunResult &b)
{
    ASSERT_EQ(a.ipcs.size(), b.ipcs.size());
    for (std::size_t i = 0; i < a.ipcs.size(); ++i) {
        EXPECT_EQ(a.ipcs[i], b.ipcs[i]) << "core " << i;
    }
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.timed_out, b.timed_out);
    EXPECT_EQ(a.acts, b.acts);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.refs, b.refs);
    EXPECT_EQ(a.rfms, b.rfms);
    EXPECT_EQ(a.alerts, b.alerts);
    EXPECT_EQ(a.rbhr, b.rbhr);
    EXPECT_EQ(a.avg_read_latency_ns, b.avg_read_latency_ns);
    EXPECT_EQ(a.max_unmitigated, b.max_unmitigated);
    EXPECT_EQ(a.faults_injected, b.faults_injected);
    EXPECT_EQ(a.counter_updates, b.counter_updates);
    EXPECT_EQ(a.mitigations, b.mitigations);
    EXPECT_EQ(a.act64, b.act64);
    EXPECT_EQ(a.epochs, b.epochs);
}

SystemConfig
referenceConfig(MitigationKind kind)
{
    SystemConfig cfg = makeConfig(kind, 500);
    cfg.insts_per_core = 12000;
    cfg.warmup_insts = 1000;
    cfg.num_cores = 2;
    // Small banks keep the per-row state in each snapshot small.
    cfg.geometry.rows_per_bank = 1024;
    return cfg;
}

/** Pauses per run (at odd cycles, evenly spread over the run). */
constexpr Cycle kPauses = 5;

/**
 * Run @p workload under the production Cpu (uninterrupted, and paused
 * kPauses times with a save/load at each pause) and under the
 * reference loop; require identical results and pause snapshots.
 *
 * @return how many pauses stopped a core's window at the pause
 *         horizon (a window that ran to stop_at - 1).
 */
unsigned
expectMatchesReference(const SystemConfig &cfg, const std::string &workload)
{
    const char *engine =
        cfg.engine == SimEngine::kTick ? "tick" : "event";
    SCOPED_TRACE(workload + " engine=" + engine +
                 " watchdog=" + std::to_string(cfg.watchdog_cycles));
    Sim ref_sim(cfg, workload);
    ReferenceLoop ref(ref_sim);

    Sim whole(cfg, workload);
    const RunResult whole_res = whole.system->run();
    const Cycle stride = (whole_res.cycles / (kPauses + 1)) & ~Cycle{1};

    auto paused = std::make_unique<Sim>(cfg, workload);
    unsigned pauses = 0;
    unsigned cut_windows = 0;
    for (Cycle stop = stride + 1;; stop += stride) {
        const bool ref_done = ref.runTo(stop);
        const bool done = paused->system->runTo(stop);
        EXPECT_EQ(ref_done, done) << "at " << stop;
        if (done || ref_done) {
            break;
        }
        ++pauses;
        Cpu &cpu = paused->system->cpu();
        for (unsigned i = 0; i < cfg.num_cores; ++i) {
            cut_windows += cpu.core(i).windowEnd() == stop - 1 ? 1 : 0;
        }
        std::vector<std::uint8_t> image = paused->snapshot();
        EXPECT_EQ(image, ref.snapshot()) << "snapshot at " << stop;
        paused = std::make_unique<Sim>(cfg, workload);
        paused->restore(std::move(image));
    }
    const RunResult ref_res = ref.finishRun();
    expectSameRun(ref_res, whole_res);
    expectSameRun(ref_res, paused->system->finishRun());
    // Not vacuous: the run did memory work and paused kPauses times.
    EXPECT_GE(pauses, kPauses);
    EXPECT_GT(ref_res.acts, 0u);
    return cut_windows;
}

TEST(CoreReference, EveryGeneratorClassMatchesWithPauses)
{
    // One workload per Table-4 generator class: bursty (bwaves),
    // hot-row skewed (parest), streaming (triad) and a heterogeneous
    // mix (mix1), plus the dependent-read pointer chaser (mcf).
    unsigned cut = 0;
    for (const char *name : {"bwaves", "parest", "triad", "mix1", "mcf"}) {
        cut += expectMatchesReference(
            referenceConfig(MitigationKind::kMopacD), name);
    }
    // Some pauses landed inside windows and cut them short.
    EXPECT_GT(cut, 0u);
}

TEST(CoreReference, BothEnginesWatchdogOnAndOff)
{
    unsigned cut = 0;
    for (const SimEngine engine : {SimEngine::kEvent, SimEngine::kTick}) {
        for (const std::uint64_t watchdog : {std::uint64_t{0},
                                             std::uint64_t{2000000}}) {
            SystemConfig cfg = referenceConfig(MitigationKind::kMopacC);
            cfg.engine = engine;
            cfg.watchdog_cycles = watchdog;
            cut += expectMatchesReference(cfg, "mcf");
        }
    }
    EXPECT_GT(cut, 0u);
}

TEST(CoreReference, FaultPlanMatches)
{
    // Completions are delivered through the same Cpu::memComplete
    // check under a fault plan; delayed ALERTs and starved RFMs
    // reshape the command stream around the windows.
    SystemConfig cfg = referenceConfig(MitigationKind::kMopacD);
    cfg.faults.spec(FaultKind::kAlertDelay).rate = 0.3;
    cfg.faults.spec(FaultKind::kRfmStarve).rate = 0.3;
    EXPECT_GT(expectMatchesReference(cfg, "mcf"), 0u);
}

/** One read after @c gap compute instructions, then compute only. */
class LateLoadTrace : public TraceSource
{
  public:
    explicit LateLoadTrace(std::uint32_t gap) : gap_(gap) {}

    TraceRecord
    next() override
    {
        TraceRecord rec;
        if (first_) {
            first_ = false;
            rec.inst_gap = gap_;
            rec.line_addr = 64;
            return rec;
        }
        rec.inst_gap = 1000000;
        return rec;
    }

  private:
    std::uint32_t gap_;
    bool first_ = true;
};

/** Accepts everything; remembers what was sent. */
class AcceptingSink : public RequestSink
{
  public:
    bool
    trySend(const Request &req, Cycle) override
    {
        sent.push_back(req);
        return true;
    }

    std::vector<Request> sent;
};

TEST(CoreReferenceDeathTest, CompletionInsideWindowPanics)
{
    LateLoadTrace trace(100);
    AcceptingSink sink;
    Cpu cpu(CoreParams{}, {&trace}, 1000000, &sink, /*warmup_insts=*/0,
            /*lookahead=*/66);
    // Tick until the read is out and the core has run ahead of the
    // loop in a window (retiring up to the read, fetching behind it).
    Cycle now = 0;
    for (; now < 200; ++now) {
        cpu.tick(now);
        if (!sink.sent.empty() && cpu.core(0).windowEnd() > now) {
            break;
        }
    }
    ASSERT_EQ(sink.sent.size(), 1u);
    ASSERT_GT(cpu.core(0).windowEnd(), now);
    // Data landing on a cycle the core already simulated would be lost.
    EXPECT_DEATH(cpu.memComplete(sink.sent[0], cpu.core(0).windowEnd()),
                 "assertion failed");
    // Data landing right after the window is fine.
    cpu.memComplete(sink.sent[0], cpu.core(0).windowEnd() + 1);
}

} // namespace
} // namespace mopac
