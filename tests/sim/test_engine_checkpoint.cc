/**
 * @file
 * Checkpoint/resume at adversarial cycles under the event engine.
 *
 * The skip loop makes some cycles special: a stop can land mid-skip
 * (between two wakeups, where the event engine never simulated the
 * surrounding cycles), exactly on an event boundary, or inside an
 * ALERT drain (stall_at_ in flight, one PRE pacing per cycle).  A
 * snapshot taken at any such point must resume into a bit-identical
 * tail -- including when the snapshot was written by one engine and
 * resumed under the other, since the next-event contract lives in the
 * serialized component state, not in the run loop.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.hh"
#include "sim/system.hh"
#include "workload/attack.hh"
#include "workload/synth.hh"

namespace mopac
{
namespace
{

/**
 * Owning bundle: a System plus the traces that feed it, plus the
 * AddressMap the trace sources hold by reference (declared first so
 * it outlives them).
 */
struct Sim
{
    std::unique_ptr<AddressMap> map;
    std::vector<std::unique_ptr<TraceSource>> owned;
    std::unique_ptr<System> system;
};

SystemConfig
quickConfig(MitigationKind kind)
{
    SystemConfig cfg = makeConfig(kind, 500);
    // Long enough (~60-75k cycles on mcf) that the stop cycles below
    // land well inside the run, with several tREFI periods to spare.
    cfg.insts_per_core = 60000;
    cfg.warmup_insts = 1000;
    cfg.num_cores = 2;
    cfg.geometry.rows_per_bank = 4096;
    return cfg;
}

Sim
makeSim(const SystemConfig &cfg, const std::string &workload)
{
    Sim sim;
    sim.map = std::make_unique<AddressMap>(cfg.geometry);
    sim.owned =
        makeWorkloadTraces(workload, *sim.map, cfg.num_cores,
                           cfg.seed);
    std::vector<TraceSource *> traces;
    for (auto &t : sim.owned) {
        traces.push_back(t.get());
    }
    sim.system = std::make_unique<System>(cfg, traces);
    return sim;
}

/** Serialize system + trace cursors into one container image. */
std::vector<std::uint8_t>
snapshot(const Sim &sim)
{
    Serializer ser;
    System::transfer(std::as_const(*sim.system), ser);
    for (const auto &t : sim.owned) {
        t->saveState(ser);
    }
    return ser.finish(FileKind::kSnapshot, 0);
}

void
restore(Sim &sim, const std::vector<std::uint8_t> &bytes)
{
    Deserializer des(bytes, FileKind::kSnapshot, 0);
    System::transfer(*sim.system, des);
    for (auto &t : sim.owned) {
        t->loadState(des);
    }
    des.finish();
}

/**
 * Checkpointable endless read loop over a fixed line-address cycle
 * (zero gap, no dependencies); used to replay an AttackPattern's
 * addresses, which the pattern itself cannot snapshot.
 */
class HammerTraceSource : public TraceSource
{
  public:
    explicit HammerTraceSource(std::vector<Addr> lines)
        : lines_(std::move(lines))
    {
    }

    TraceRecord
    next() override
    {
        TraceRecord rec;
        rec.inst_gap = 0;
        rec.line_addr = lines_[pos_];
        pos_ = (pos_ + 1) % lines_.size();
        return rec;
    }

    void saveState(Serializer &ser) const override { transfer(*this, ser); }
    void loadState(Deserializer &des) override { transfer(*this, des); }

    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.u64(self.pos_);
    }

  private:
    std::vector<Addr> lines_;
    std::uint64_t pos_ = 0;
};

/** A Sim whose every core hammers one bank many-sided. */
Sim
makeAttackSim(const SystemConfig &cfg)
{
    Sim sim;
    sim.map = std::make_unique<AddressMap>(cfg.geometry);
    for (unsigned c = 0; c < cfg.num_cores; ++c) {
        AttackPattern pattern = makeManySidedAttack(
            *sim.map, /*subchannel=*/0, /*bank=*/c % 4,
            /*num_rows=*/8, /*start_row=*/100 + 64 * c);
        std::vector<Addr> lines;
        for (std::size_t i = 0; i < pattern.footprint(); ++i) {
            lines.push_back(pattern.next().line_addr);
        }
        sim.owned.push_back(
            std::make_unique<HammerTraceSource>(std::move(lines)));
    }
    std::vector<TraceSource *> traces;
    for (auto &t : sim.owned) {
        traces.push_back(t.get());
    }
    sim.system = std::make_unique<System>(cfg, traces);
    return sim;
}

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
    EXPECT_EQ(a.apri, b.apri);
    EXPECT_EQ(a.avg_read_latency_ns, b.avg_read_latency_ns);
    EXPECT_EQ(a.max_unmitigated, b.max_unmitigated);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.counter_updates, b.counter_updates);
    EXPECT_EQ(a.srq_insertions, b.srq_insertions);
    EXPECT_EQ(a.mitigations, b.mitigations);
    EXPECT_EQ(a.ref_drains, b.ref_drains);
    EXPECT_EQ(a.act64, b.act64);
    EXPECT_EQ(a.act200, b.act200);
    EXPECT_EQ(a.epochs, b.epochs);
}

/**
 * Snapshot @p cfg's run at cycle @p stop_at under @p save_engine,
 * resume under @p resume_engine, and require the tail to match the
 * uninterrupted run of @p save_engine bit-for-bit.
 */
void
roundTripAt(SystemConfig cfg, const std::string &workload,
            Cycle stop_at, SimEngine save_engine,
            SimEngine resume_engine, const std::string &tag)
{
    cfg.engine = save_engine;
    const RunResult reference = makeSim(cfg, workload).system->run();

    Sim interrupted = makeSim(cfg, workload);
    ASSERT_FALSE(interrupted.system->runTo(stop_at)) << tag;
    ASSERT_EQ(interrupted.system->runCycle(), stop_at) << tag;
    const std::vector<std::uint8_t> bytes = snapshot(interrupted);

    SystemConfig resume_cfg = cfg;
    resume_cfg.engine = resume_engine;
    Sim resumed = makeSim(resume_cfg, workload);
    restore(resumed, bytes);
    EXPECT_EQ(resumed.system->runCycle(), stop_at) << tag;
    const RunResult tail = resumed.system->run();
    {
        SCOPED_TRACE(tag);
        expectSameRun(reference, tail);
    }
}

TEST(EngineCheckpoint, MidSkipAndOddCycleSnapshotsResume)
{
    // Odd, prime-ish stop cycles land between wakeups with high
    // probability: under the event engine runTo() must pause there
    // without simulating the cycle, then resume across the remainder
    // of the interrupted skip.
    for (const Cycle stop : {10007u, 33331u, 49999u}) {
        roundTripAt(quickConfig(MitigationKind::kMopacC), "mcf", stop,
                    SimEngine::kEvent, SimEngine::kEvent,
                    "mid-skip@" + std::to_string(stop));
    }
}

TEST(EngineCheckpoint, EventBoundarySnapshotsResume)
{
    // tREFI multiples are guaranteed controller wakeups, so these
    // stops land exactly on event boundaries (the skip target
    // itself).
    const Cycle trefi = nsToCycles(3900.0);
    for (const unsigned k : {1u, 2u, 3u}) {
        roundTripAt(quickConfig(MitigationKind::kMopacD), "mcf",
                    k * trefi, SimEngine::kEvent, SimEngine::kEvent,
                    "ref-boundary@" + std::to_string(k));
    }
}

TEST(EngineCheckpoint, SnapshotDuringAlertDrainResumes)
{
    // A many-sided hammer plus a tiny ATH makes ALERT/ABO constant
    // background noise; stepping the stop cycle until the pin is up
    // then guarantees the snapshot lands mid-drain (and the stepping
    // itself checks many pause points in one run).
    SystemConfig cfg = quickConfig(MitigationKind::kMopacC);
    cfg.ath_override = 20;
    cfg.insts_per_core = 6000;
    cfg.warmup_insts = 500;

    cfg.engine = SimEngine::kEvent;
    const RunResult reference = makeAttackSim(cfg).system->run();

    // MoPAC-C counts ACTs probabilistically, so even under a dense
    // hammer the tiny ATH is first crossed ~200k cycles in (seed 500);
    // skip the cold start, then walk cycle by cycle until the ALERT
    // pin is up, and snapshot while the drain is in flight.
    Sim probe = makeAttackSim(cfg);
    ASSERT_FALSE(probe.system->runTo(150000));
    bool found = false;
    for (int i = 0; i < 400000 && !found; ++i) {
        for (unsigned s = 0; s < probe.system->numSubchannels(); ++s) {
            if (probe.system->subchannel(s).alertAsserted()) {
                found = true;
            }
        }
        if (!found) {
            ASSERT_FALSE(probe.system->runTo(
                probe.system->runCycle() + 1));
        }
    }
    ASSERT_TRUE(found) << "no ALERT observed; ath_override too high?";
    const std::vector<std::uint8_t> bytes = snapshot(probe);

    Sim resumed = makeAttackSim(cfg);
    restore(resumed, bytes);
    const RunResult tail = resumed.system->run();
    expectSameRun(reference, tail);
}

TEST(EngineCheckpoint, CrossEngineResumeIsBitIdentical)
{
    // The snapshot is engine-agnostic: a tick-engine snapshot resumed
    // under the event engine (and vice versa) must complete the same
    // execution.  This also exercises sweeps whose shards restore the
    // same journal under different engines.
    roundTripAt(quickConfig(MitigationKind::kMopacC), "mcf", 50021,
                SimEngine::kTick, SimEngine::kEvent, "tick->event");
    roundTripAt(quickConfig(MitigationKind::kQprac), "mcf", 50021,
                SimEngine::kEvent, SimEngine::kTick, "event->tick");
}

} // namespace
} // namespace mopac
