/**
 * @file
 * Differential harness for the run-loop engines: the skip-to-next-event
 * engine must reproduce the legacy one-iteration-per-cycle loop
 * bit-for-bit.  Every run is executed under both engines and compared
 * on two levels:
 *
 *  - the full RunResult (per-core IPCs, command counts, mitigation
 *    counters, security ground truth, epoch stats), and
 *  - the complete serialized System state after the run, byte by byte
 *    (bank timing machines, queues, RNG streams, watchdog bookkeeping,
 *    command ring -- if any component diverges, the snapshots differ).
 *
 * Coverage spans every MitigationKind, each workload generator class
 * of Table 4 (bursty, hot-row skewed, streaming, and a mix), and a
 * many-sided Rowhammer attack stream driving ALERT/ABO storms.  The
 * memory-only AttackRunner loop (the §7 performance-attack study) gets
 * the same treatment: its event engine must match its per-cycle one
 * on the benchmark's attack cases and under ALERT/RFM fault plans.
 *
 * Both engines share the Cpu, so its per-core wake bounds and
 * fast-forward windows are held to a core ticked on every cycle in
 * test_core_reference.cc instead.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.hh"
#include "sim/attack.hh"
#include "sim/profile.hh"
#include "sim/system.hh"
#include "workload/attack.hh"
#include "workload/synth.hh"

namespace mopac
{
namespace
{

/** Result plus the post-run serialized System image. */
struct EngineRun
{
    RunResult result;
    std::vector<std::uint8_t> state;
};

SystemConfig
quickConfig(MitigationKind kind)
{
    SystemConfig cfg = makeConfig(kind, 500);
    cfg.insts_per_core = 12000;
    cfg.warmup_insts = 1000;
    cfg.num_cores = 2;
    // Smaller bank: keeps PRAC's per-row serialized state (and thus
    // each byte-level comparison) small without changing coverage.
    cfg.geometry.rows_per_bank = 4096;
    return cfg;
}

/** Run @p cfg on traces built by @p build, under the given engine. */
template <typename BuildTraces>
EngineRun
runEngine(SystemConfig cfg, SimEngine engine, BuildTraces &&build)
{
    cfg.engine = engine;
    const AddressMap map(cfg.geometry);
    auto owned = build(cfg, map);
    std::vector<TraceSource *> traces;
    traces.reserve(owned.size());
    for (auto &t : owned) {
        traces.push_back(t.get());
    }
    System system(cfg, traces);
    EngineRun run;
    run.result = system.run();
    Serializer ser;
    System::transfer(std::as_const(system), ser);
    run.state = ser.finish(FileKind::kSnapshot, 0);
    return run;
}

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
    EXPECT_EQ(a.apri, b.apri);
    EXPECT_EQ(a.avg_read_latency_ns, b.avg_read_latency_ns);
    EXPECT_EQ(a.max_unmitigated, b.max_unmitigated);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.faults_injected, b.faults_injected);
    EXPECT_EQ(a.counter_updates, b.counter_updates);
    EXPECT_EQ(a.srq_insertions, b.srq_insertions);
    EXPECT_EQ(a.mitigations, b.mitigations);
    EXPECT_EQ(a.ref_drains, b.ref_drains);
    EXPECT_EQ(a.act64, b.act64);
    EXPECT_EQ(a.act200, b.act200);
    EXPECT_EQ(a.epochs, b.epochs);
}

/** Run both engines and require identical results and state bytes. */
template <typename BuildTraces>
void
expectEnginesAgree(const SystemConfig &cfg, BuildTraces &&build,
                   const std::string &tag)
{
    const EngineRun tick = runEngine(cfg, SimEngine::kTick, build);
    const EngineRun event = runEngine(cfg, SimEngine::kEvent, build);
    {
        SCOPED_TRACE(tag);
        expectSameRun(tick.result, event.result);
    }
    EXPECT_EQ(tick.state, event.state)
        << tag << ": serialized System state diverged";
    // Guard against vacuous success: the runs must have done work.
    EXPECT_GT(tick.result.cycles, 0u) << tag;
    EXPECT_GT(tick.result.acts, 0u) << tag;
}

/** makeWorkloadTraces adapter for runEngine's build callback. */
auto
workloadBuilder(const std::string &name)
{
    return [name](const SystemConfig &cfg, const AddressMap &map) {
        return makeWorkloadTraces(name, map, cfg.num_cores, cfg.seed);
    };
}

TEST(EngineDiff, EveryMitigationKindMatchesOnMcf)
{
    for (MitigationKind kind :
         {MitigationKind::kNone, MitigationKind::kPracMoat,
          MitigationKind::kMopacC, MitigationKind::kMopacD,
          MitigationKind::kMint, MitigationKind::kPride,
          MitigationKind::kTrr, MitigationKind::kPara,
          MitigationKind::kGraphene, MitigationKind::kQprac}) {
        expectEnginesAgree(quickConfig(kind), workloadBuilder("mcf"),
                           std::string("mcf/") + toString(kind));
    }
}

TEST(EngineDiff, EveryWorkloadGeneratorClassMatches)
{
    // One representative per generator shape: hot-row bursty
    // (parest), latency-bound pointer chaser (mcf, covered above),
    // streaming (bwaves), high-MPKI writer (lbm), and a heterogeneous
    // mix.  A different engine picks up different idle structure from
    // each, which is exactly what the skip logic must not disturb.
    for (const char *name : {"parest", "bwaves", "lbm", "mix1"}) {
        SystemConfig cfg = quickConfig(MitigationKind::kMopacC);
        expectEnginesAgree(cfg, workloadBuilder(name), name);
    }
}

/**
 * Endless read stream replaying an AttackPattern's address cycle
 * (zero instruction gap, no dependencies: maximum ACT pressure).
 */
class AttackTraceSource : public TraceSource
{
  public:
    explicit AttackTraceSource(AttackPattern pattern)
        : pattern_(std::move(pattern))
    {
    }

    TraceRecord
    next() override
    {
        TraceRecord rec;
        rec.inst_gap = 0;
        rec.line_addr = pattern_.next().line_addr;
        return rec;
    }

  private:
    AttackPattern pattern_;
};

TEST(EngineDiff, AttackPatternAlertStormsMatch)
{
    // Many-sided hammer on one bank from every core: drives the
    // per-bank counters over ATH quickly, so the run is dense with
    // ALERT windows, drains, and RFMs -- the trickiest maintenance
    // states for the skip logic (stall_at_ can sit in the future,
    // drains pace one PRE per cycle).
    for (MitigationKind kind :
         {MitigationKind::kMopacC, MitigationKind::kMopacD,
          MitigationKind::kPracMoat}) {
        SystemConfig cfg = quickConfig(kind);
        cfg.insts_per_core = 6000;
        cfg.warmup_insts = 500;
        auto build = [](const SystemConfig &cfg_,
                        const AddressMap &map) {
            std::vector<std::unique_ptr<TraceSource>> out;
            for (unsigned c = 0; c < cfg_.num_cores; ++c) {
                out.push_back(std::make_unique<AttackTraceSource>(
                    makeManySidedAttack(map, /*subchannel=*/0,
                                        /*bank=*/c % 4,
                                        /*num_rows=*/8,
                                        /*start_row=*/100 + 64 * c)));
            }
            return out;
        };
        expectEnginesAgree(cfg, build,
                           std::string("attack/") + toString(kind));
    }
}

/** One AttackRunner run: result, per-sub-channel stats, state bytes. */
struct AttackRun
{
    AttackResult result;
    std::vector<SubChannelStats> subch;
    std::vector<std::uint8_t> state;
    SimProfile profile;
};

enum class AttackShape
{
    kMultiBank,
    kSrqFill,
};

AttackRun
runAttackEngine(SystemConfig cfg, SimEngine engine, AttackShape shape)
{
    cfg.engine = engine;
    AttackRunner runner(cfg);
    const AddressMap &map = runner.system().addressMap();
    AttackPattern pattern =
        shape == AttackShape::kMultiBank
            ? makeMultiBankAttack(map, 64, /*victim_row=*/1500)
            : makeManySidedAttack(map, 0, 0, 48, /*start_row=*/3000);
    const SimProfile before = simProfile();
    AttackRun run;
    run.result = runner.run(pattern, nsToCycles(100000.0),
                            /*max_inflight=*/8);
    run.profile = simProfile();
    run.profile.cycles_run -= before.cycles_run;
    run.profile.cycles_skipped -= before.cycles_skipped;
    for (unsigned s = 0; s < runner.system().numSubchannels(); ++s) {
        run.subch.push_back(runner.system().subchannel(s).stats());
    }
    Serializer ser;
    System::transfer(std::as_const(runner.system()), ser);
    run.state = ser.finish(FileKind::kSnapshot, 0);
    return run;
}

/** Run both engines, require identical results; @return the event run. */
AttackRun
expectAttackEnginesAgree(const SystemConfig &cfg, AttackShape shape,
                         const std::string &tag)
{
    SCOPED_TRACE(tag);
    const AttackRun tick = runAttackEngine(cfg, SimEngine::kTick, shape);
    const AttackRun event = runAttackEngine(cfg, SimEngine::kEvent, shape);
    const AttackResult &a = tick.result;
    const AttackResult &b = event.result;
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.acts, b.acts);
    EXPECT_EQ(a.alerts, b.alerts);
    EXPECT_EQ(a.rfms, b.rfms);
    EXPECT_EQ(a.mitigations, b.mitigations);
    EXPECT_EQ(a.max_unmitigated, b.max_unmitigated);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.faults_injected, b.faults_injected);
    EXPECT_EQ(a.acts_per_us, b.acts_per_us);
    EXPECT_EQ(tick.subch.size(), event.subch.size());
    for (std::size_t s = 0;
         s < std::min(tick.subch.size(), event.subch.size()); ++s) {
        const SubChannelStats &x = tick.subch[s];
        const SubChannelStats &y = event.subch[s];
        EXPECT_EQ(x.acts, y.acts) << "sub-channel " << s;
        EXPECT_EQ(x.pres, y.pres) << "sub-channel " << s;
        EXPECT_EQ(x.precus, y.precus) << "sub-channel " << s;
        EXPECT_EQ(x.reads, y.reads) << "sub-channel " << s;
        EXPECT_EQ(x.writes, y.writes) << "sub-channel " << s;
        EXPECT_EQ(x.refs, y.refs) << "sub-channel " << s;
        EXPECT_EQ(x.rfms, y.rfms) << "sub-channel " << s;
        EXPECT_EQ(x.alerts, y.alerts) << "sub-channel " << s;
        EXPECT_EQ(x.victim_refreshes, y.victim_refreshes)
            << "sub-channel " << s;
    }
    EXPECT_EQ(tick.state, event.state)
        << "serialized System state diverged";
    // The per-cycle reference executes every cycle; the event engine
    // must actually skip, and the two must account for all of them.
    EXPECT_EQ(tick.profile.cycles_run, a.cycles);
    EXPECT_EQ(tick.profile.cycles_skipped, 0u);
    EXPECT_GT(event.profile.cycles_skipped, 0u);
    EXPECT_EQ(event.profile.cycles_run + event.profile.cycles_skipped,
              b.cycles);
    EXPECT_GT(a.acts, 0u);
    return event;
}

SystemConfig
attackConfig(MitigationKind kind)
{
    SystemConfig cfg = makeConfig(kind, 500);
    cfg.geometry.rows_per_bank = 4096;
    return cfg;
}

TEST(EngineDiff, AttackRunnerMatchesOnBenchmarkAttacks)
{
    // The attack_abo cases of the benchmark (Tables 9 and 10).
    const struct
    {
        MitigationKind kind;
        AttackShape shape;
        const char *tag;
    } cases[] = {
        {MitigationKind::kNone, AttackShape::kMultiBank,
         "multi-bank/none"},
        {MitigationKind::kMopacC, AttackShape::kMultiBank,
         "multi-bank/mopac-c"},
        {MitigationKind::kMopacD, AttackShape::kMultiBank,
         "multi-bank/mopac-d"},
        {MitigationKind::kNone, AttackShape::kSrqFill, "srq-fill/none"},
        {MitigationKind::kMopacD, AttackShape::kSrqFill,
         "srq-fill/mopac-d"},
    };
    for (const auto &c : cases) {
        expectAttackEnginesAgree(attackConfig(c.kind), c.shape, c.tag);
    }
}

TEST(EngineDiff, AttackRunnerMatchesUnderAlertFaults)
{
    // Dropped and delayed ALERTs move alertSince() into the future and
    // RFM starvation moves the drain deadline: the wakeups the skip
    // must not outrun.
    const struct
    {
        MitigationKind kind;
        AttackShape shape;
    } cases[] = {
        {MitigationKind::kMopacD, AttackShape::kSrqFill},
        {MitigationKind::kMopacC, AttackShape::kMultiBank},
    };
    for (const auto &c : cases) {
        SystemConfig cfg = attackConfig(c.kind);
        cfg.faults.spec(FaultKind::kAlertDrop).rate = 0.2;
        cfg.faults.spec(FaultKind::kAlertDelay).rate = 0.3;
        cfg.faults.spec(FaultKind::kRfmStarve).rate = 0.3;
        const std::string tag = std::string("faults/") + toString(c.kind);
        const AttackRun event = expectAttackEnginesAgree(cfg, c.shape, tag);
        EXPECT_GT(event.result.faults_injected, 0u) << tag;
        EXPECT_GT(event.result.alerts, 0u) << tag;
    }
}

} // namespace
} // namespace mopac
