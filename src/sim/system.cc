/**
 * @file
 * System construction and the main simulation loop.
 */

#include "system.hh"

#include <algorithm>
#include <utility>

#include "analysis/moat_model.hh"
#include "analysis/security.hh"
#include "common/log.hh"
#include "common/serialize.hh"
#include "sim/profile.hh"
#include "sim/stop.hh"
#include "mitigation/mopac_c.hh"
#include "mitigation/none.hh"
#include "mitigation/prac_moat.hh"
#include "mitigation/extra_engines.hh"
#include "mitigation/related.hh"

namespace mopac
{

std::string
toString(MitigationKind kind)
{
    switch (kind) {
      case MitigationKind::kNone: return "none";
      case MitigationKind::kPracMoat: return "prac";
      case MitigationKind::kMopacC: return "mopac-c";
      case MitigationKind::kMopacD: return "mopac-d";
      case MitigationKind::kMint: return "mint";
      case MitigationKind::kPride: return "pride";
      case MitigationKind::kTrr: return "trr";
      case MitigationKind::kPara: return "para";
      case MitigationKind::kGraphene: return "graphene";
      case MitigationKind::kQprac: return "qprac";
    }
    return "?";
}

SystemConfig
makeConfig(MitigationKind kind, std::uint32_t trh)
{
    SystemConfig cfg;
    cfg.mitigation = kind;
    cfg.trh = trh;
    return cfg;
}

double
RunResult::meanIpc() const
{
    if (ipcs.empty()) {
        return 0.0;
    }
    double s = 0.0;
    for (double v : ipcs) {
        s += v;
    }
    return s / static_cast<double>(ipcs.size());
}

double
weightedSlowdown(const RunResult &base, const RunResult &test)
{
    MOPAC_ASSERT(base.ipcs.size() == test.ipcs.size());
    MOPAC_ASSERT(!base.ipcs.empty());
    double ratio_sum = 0.0;
    for (std::size_t i = 0; i < base.ipcs.size(); ++i) {
        MOPAC_ASSERT(base.ipcs[i] > 0.0);
        ratio_sum += test.ipcs[i] / base.ipcs[i];
    }
    return 1.0 - ratio_sum / static_cast<double>(base.ipcs.size());
}

namespace
{

/** Select the timing sets implied by a mitigation kind. */
void
pickTimings(MitigationKind kind, TimingSet &normal, TimingSet &cu)
{
    switch (kind) {
      case MitigationKind::kPracMoat:
      case MitigationKind::kQprac:
        // Deterministic PRAC: every operation pays the PRAC timings.
        normal = TimingSet::prac();
        cu = TimingSet::prac();
        break;
      case MitigationKind::kMopacC:
        // §5.1: PRE at base latency, PREcu at PRAC latency.
        normal = TimingSet::base();
        cu = TimingSet::prac();
        break;
      default:
        normal = TimingSet::base();
        cu = TimingSet::base();
        break;
    }
}

} // namespace

System::System(const SystemConfig &cfg, std::vector<TraceSource *> traces)
    : cfg_(cfg), map_(cfg.geometry)
{
    pickTimings(cfg_.mitigation, normal_, cu_);

    Rng seeder(cfg_.seed ^ 0xD0A0C0B0ull);
    for (unsigned s = 0; s < cfg_.geometry.num_subchannels; ++s) {
        subch_.push_back(std::make_unique<SubChannel>(
            cfg_.geometry, &normal_, &cu_, cfg_.trh));
        SubChannel &dev = *subch_.back();

        // Attach a fault injector only when the plan can ever fire:
        // an idle plan leaves every hook on its exact pre-fault path
        // (zero-intensity runs are byte-identical to fault-free ones).
        if (cfg_.faults.enabled()) {
            faults_.push_back(std::make_unique<FaultInjector>(
                cfg_.faults, cfg_.seed, s));
            dev.setFaults(faults_.back().get());
        }

        std::unique_ptr<Mitigator> engine;
        switch (cfg_.mitigation) {
          case MitigationKind::kNone:
            engine = std::make_unique<NoMitigation>();
            break;
          case MitigationKind::kPracMoat: {
            PracMoatEngine::Params p;
            p.ath = cfg_.ath_override ? cfg_.ath_override
                                      : moatAth(cfg_.trh);
            engine = std::make_unique<PracMoatEngine>(dev, p);
            break;
          }
          case MitigationKind::kMopacC: {
            const MopacCDerived d =
                deriveMopacC(cfg_.trh, cfg_.rowpress);
            MopacCEngine::Params p;
            p.log2_inv_p = d.log2_inv_p;
            p.ath_star = cfg_.ath_star_override
                             ? cfg_.ath_star_override
                             : d.ath_star;
            p.seed = seeder.next();
            engine = std::make_unique<MopacCEngine>(dev, p);
            break;
          }
          case MitigationKind::kMopacD: {
            const MopacDDerived d = deriveMopacD(
                cfg_.trh, cfg_.tth, cfg_.rowpress, cfg_.nup);
            MopacDEngine::Params p;
            p.log2_inv_p = d.log2_inv_p;
            p.ath_star = cfg_.ath_star_override
                             ? cfg_.ath_star_override
                             : d.ath_star;
            p.srq_capacity = cfg_.srq_capacity;
            p.tth = cfg_.tth;
            p.drain_per_ref = cfg_.drain_per_ref >= 0
                                  ? static_cast<unsigned>(
                                        cfg_.drain_per_ref)
                                  : d.drain_per_ref;
            p.chips = cfg_.geometry.chips;
            p.nup = cfg_.nup;
            p.rowpress = cfg_.rowpress;
            p.sampler = cfg_.sampler;
            p.seed = seeder.next();
            engine = std::make_unique<MopacDEngine>(dev, p);
            break;
          }
          case MitigationKind::kMint: {
            MintTracker::Params p;
            p.seed = seeder.next();
            engine = std::make_unique<MintTracker>(dev, p);
            break;
          }
          case MitigationKind::kPride: {
            PrideTracker::Params p;
            p.seed = seeder.next();
            engine = std::make_unique<PrideTracker>(dev, p);
            break;
          }
          case MitigationKind::kTrr: {
            TrrTracker::Params p;
            engine = std::make_unique<TrrTracker>(dev, p);
            break;
          }
          case MitigationKind::kPara: {
            ParaEngine::Params p;
            p.q = ParaEngine::deriveQ(cfg_.trh);
            p.seed = seeder.next();
            engine = std::make_unique<ParaEngine>(dev, p);
            break;
          }
          case MitigationKind::kGraphene: {
            GrapheneTracker::Params p;
            p.mitigation_threshold =
                std::max<std::uint32_t>(1, cfg_.trh / 2);
            engine = std::make_unique<GrapheneTracker>(dev, p);
            break;
          }
          case MitigationKind::kQprac: {
            QpracEngine::Params p;
            p.ath = cfg_.ath_override ? cfg_.ath_override
                                      : moatAth(cfg_.trh);
            engine = std::make_unique<QpracEngine>(dev, p);
            break;
          }
        }
        dev.setMitigator(engine.get());
        engines_.push_back(std::move(engine));

        controllers_.push_back(std::make_unique<Controller>(
            dev, map_, cfg_.mc, /*client=*/nullptr));

        if (cfg_.track_epoch_stats) {
            const Cycle epoch = cfg_.epoch_cycles
                                    ? cfg_.epoch_cycles
                                    : normal_.tREFW;
            dev.checker().enableEpochTracking(epoch, cfg_.epoch_hi1,
                                              cfg_.epoch_hi2);
        }
    }

    if (!traces.empty()) {
        if (traces.size() != cfg_.num_cores) {
            fatal("system: {} traces for {} cores", traces.size(),
                  cfg_.num_cores);
        }
        // A read's data lands tCL + tBL after its CAS, so a core can
        // run that many cycles minus one ahead of the controllers
        // without missing a completion (Cpu::memComplete asserts it).
        const Cycle data_delay =
            std::min(normal_.tCL + normal_.tBL, cu_.tCL + cu_.tBL);
        cpu_ = std::make_unique<Cpu>(cfg_.core, traces,
                                     cfg_.warmup_insts +
                                         cfg_.insts_per_core,
                                     this, cfg_.warmup_insts,
                                     data_delay - 1);
        // Completions must reach the cores.
        for (unsigned s = 0; s < subch_.size(); ++s) {
            controllers_[s] = std::make_unique<Controller>(
                *subch_[s], map_, cfg_.mc, cpu_.get());
        }
    }
}

System::~System() = default;

bool
System::trySend(const Request &req, Cycle now)
{
    const DramCoord coord = map_.decode(req.line_addr);
    return controllers_.at(coord.subchannel)->enqueue(req, now);
}

std::uint64_t
System::maxCycles() const
{
    return cfg_.max_cycles
               ? cfg_.max_cycles
               : (cfg_.warmup_insts + cfg_.insts_per_core) * 400 +
                     10000000;
}

namespace
{

/** Round @p c up to the next multiple of the power of two @p align. */
constexpr Cycle
alignUpPow2(Cycle c, Cycle align)
{
    return (c + (align - 1)) & ~(align - 1);
}

/**
 * Poll period of the aligned checks in runTo() (cycles).  The
 * watchdog reads core state, so it polls on the cycles the Cpu keeps
 * fast-forward windows from crossing.
 */
constexpr Cycle kWatchdogPollPeriod = Cpu::kPollPeriod;
constexpr Cycle kAbortPollPeriod = 16384;

} // namespace

std::uint64_t
System::totalRetired() const
{
    std::uint64_t retired = 0;
    for (unsigned i = 0; i < cfg_.num_cores; ++i) {
        retired += cpu_->core(i).retiredInsts();
    }
    return retired;
}

Cycle
System::nextEventCycle(Cycle mc_next) const
{
    // now_ is the next unsimulated cycle; now_ - 1 was just simulated.
    // Each source reports its next wakeup; the run loop only ever
    // needs the minimum, so this is a direct fold over the sources
    // (no heap maintenance on the hot path).  The controller minimum
    // arrives precomputed -- the run loop folds it while the freshly
    // written next_wake_ values are still in L1 -- and the CPU keeps
    // its own minimum incrementally (Cpu::nextSelfEventAt is a cached
    // load), so the whole probe is a handful of compares.  It bails
    // as soon as the running minimum already forbids a skip -- the
    // caller only compares the result against now_, so an early
    // return of any value <= now_ is exact.
    Cycle next = mc_next;
    if (next <= now_) {
        return next;
    }
    next = std::min(next, cpu_->nextSelfEventAt(now_ - 1));
    if (next <= now_) {
        return next;
    }
    if (cfg_.watchdog_cycles > 0) {
        // Cap the skip at the next aligned watchdog poll rather than
        // computing the exact watchdog event (which needs
        // totalRetired(), an all-cores fold) on every probe.  The
        // aligned cycle then executes and runs the poll exactly as
        // the tick engine would, so the cap is always exact -- it
        // only shortens skips, never changes what any executed cycle
        // does -- and the probe stays O(sources).
        next = std::min(next, alignUpPow2(now_, kWatchdogPollPeriod));
    }
    // The abort flag is host-asynchronous; polling only at aligned
    // cycles (like the tick loop) keeps the command streams identical
    // while bounding how long a skip can outrun an operator's Ctrl-C.
    next = std::min(next, alignUpPow2(now_, kAbortPollPeriod));
    return next;
}

bool
System::runTo(Cycle stop_at)
{
    MOPAC_ASSERT(cpu_ != nullptr);
    const std::uint64_t max_cycles = maxCycles();
    if (measuring_.empty()) {
        measuring_.assign(cfg_.num_cores, 0);
    }
    if (timed_out_) {
        return true;
    }

    const bool event_mode = cfg_.engine == SimEngine::kEvent;
    SimProfile &prof = simProfile();
    // A pause is a snapshot point: no core may have run past it.
    cpu_->setPauseAt(stop_at);
    // Cores still waiting to clear warmup; once all have started
    // their measured interval the per-cycle check below disappears.
    unsigned measure_pending = 0;
    for (const std::uint8_t m : measuring_) {
        measure_pending += m ? 0 : 1;
    }
    const auto trip_cycle_bound = [&] {
        warn("system: hit cycle bound {} before completion",
             max_cycles);
        timed_out_ = true;
    };

    // Both engines share this one loop body, so the measurement /
    // watchdog / abort polls exist exactly once.  The event engine
    // simulates the same cycle fully, then jumps now_ to the earliest
    // wakeup; every skipped cycle is one where the tick engine would
    // have done nothing (each core sleeps on its wake bound, idle or
    // already past the cycle in a fast-forward window; controllers
    // early-return before next_wake_; the aligned polls are
    // scheduled as their own wakeups), so the two
    // executions are bit-identical.  The core state read below after
    // cpu_->tick() is always that of cycle now_: the Cpu opens no
    // window on a tick that reaches the warmup or target count, nor
    // past the next aligned poll or stop_at - 1.
    while (!cpu_->allDone()) {
        if (now_ >= stop_at) {
            return false;
        }
        const bool cpu_active = cpu_->tick(now_);
        // Fold the controller wakeups while their just-updated
        // next_wake_ values are still hot; the event probe below then
        // never touches a controller.
        Cycle mc_next = kNeverCycle;
        for (auto &mc : controllers_) {
            mc->tick(now_);
            mc_next = std::min(mc_next, mc->nextWakeAt());
        }
        // Begin each core's measured interval once it clears warmup.
        if (measure_pending > 0) {
            for (unsigned i = 0; i < cfg_.num_cores; ++i) {
                if (!measuring_[i] &&
                    cpu_->core(i).retiredInsts() >= cfg_.warmup_insts) {
                    cpu_->core(i).startMeasurement(now_);
                    measuring_[i] = 1;
                    --measure_pending;
                }
            }
        }
        if (cfg_.watchdog_cycles > 0 &&
            (now_ & (kWatchdogPollPeriod - 1)) == 0) {
            const std::uint64_t retired = totalRetired();
            if (retired != wd_last_retired_) {
                wd_last_retired_ = retired;
                wd_last_progress_ = now_;
            } else if (now_ - wd_last_progress_ >=
                       cfg_.watchdog_cycles) {
                reportStall(now_, retired);
            }
        }
        if ((now_ & (kAbortPollPeriod - 1)) == 0 &&
            sweepstop::abortRequested()) {
            reportAbort(now_);
        }
        ++now_;
        ++prof.cycles_run;
        if (now_ >= max_cycles) {
            trip_cycle_bound();
            break;
        }
        if (!event_mode || cpu_active) {
            // An active CPU schedules its own wakeup at now_, which
            // forbids any skip -- so the whole next-event computation
            // is elided on busy cycles (the common case on memory-
            // bound points).
            continue;
        }

        ++prof.event_maint;
        const Cycle next = nextEventCycle(mc_next);
        if (next <= now_) {
            continue;
        }
        if (next >= max_cycles && max_cycles <= stop_at) {
            // The tick loop would idle cycle-by-cycle up to the bound
            // and trip it before pausing; replicate that ordering.
            prof.cycles_skipped += max_cycles - now_;
            now_ = max_cycles;
            trip_cycle_bound();
            break;
        }
        // Jump straight to the wakeup; the loop head pauses at
        // stop_at first if that comes sooner.
        const Cycle target = std::min(next, stop_at);
        prof.cycles_skipped += target - now_;
        now_ = target;
    }
    return true;
}

RunResult
System::finishRun()
{
    MOPAC_ASSERT(cpu_ != nullptr);
    // Fold the trailing partial epoch into the hot-row statistics.
    for (auto &dev : subch_) {
        dev->checker().finalizeEpoch();
    }

    RunResult res = collectStats(now_);
    res.timed_out = timed_out_;
    res.ipcs = cpu_->measuredIpcs();
    return res;
}

RunResult
System::run()
{
    runTo(kNeverCycle);
    return finishRun();
}

std::uint64_t
System::faultsInjected() const
{
    std::uint64_t total = 0;
    for (const auto &inj : faults_) {
        total += inj->stats().total();
    }
    return total;
}

void
System::reportStall(Cycle now, std::uint64_t retired) const
{
    // Classified as HUNG by tryRunWorkload (it matches this marker).
    std::string tail;
    for (unsigned s = 0; s < subch_.size(); ++s) {
        for (const CommandRecord &rec :
             subch_[s]->commandTail(cfg_.watchdog_tail)) {
            tail += format("\n  subch{} @{:>12} {:<5} bank {:>2} row {}",
                           s, rec.at, toString(rec.cmd), rec.bank,
                           rec.row);
        }
    }
    panic("forward-progress watchdog: no instruction retired in {} "
          "cycles (now {}, {} retired total); last commands:{}",
          cfg_.watchdog_cycles, now, retired,
          tail.empty() ? "\n  (none)" : tail.c_str());
}

void
System::reportAbort(Cycle now) const
{
    std::string tail;
    for (unsigned s = 0; s < subch_.size(); ++s) {
        for (const CommandRecord &rec :
             subch_[s]->commandTail(cfg_.watchdog_tail)) {
            tail += format("\n  subch{} @{:>12} {:<5} bank {:>2} row {}",
                           s, rec.at, toString(rec.cmd), rec.bank,
                           rec.row);
        }
    }
    throw AbortError(format(
        "run aborted by operator at cycle {}; last commands:{}", now,
        tail.empty() ? "\n  (none)" : tail.c_str()));
}

template <class Self, class Ar>
void
System::transfer(Self &self, Ar &ar)
{
    // unique_ptr does not pass the owner's constness on to the
    // pointee; a save must see every component as const.
    auto view = [](auto &obj) -> auto & {
        if constexpr (Ar::kLoading) {
            return obj;
        } else {
            return std::as_const(obj);
        }
    };
    ar.begin(0x5359u); // 'SY'
    const std::string engine_name =
        self.engines_.empty() ? std::string()
                              : self.engines_.front()->name();
    std::string saved_engine = engine_name;
    ar.str(saved_engine);
    if (Ar::kLoading && saved_engine != engine_name) {
        throw SerializeError(format(
            "snapshot engine mismatch (saved '{}', live '{}')",
            saved_engine, engine_name));
    }
    matchU32(ar, static_cast<std::uint32_t>(self.subch_.size()),
             "snapshot sub-channel count");
    bool saved_faults = self.cfg_.faults.enabled();
    ar.flag(saved_faults);
    if (Ar::kLoading && saved_faults != self.cfg_.faults.enabled()) {
        throw SerializeError(format(
            "snapshot fault-plan mismatch (saved {}, live {})",
            saved_faults ? "active" : "inactive",
            self.cfg_.faults.enabled() ? "active" : "inactive"));
    }
    bool saved_cpu = self.cpu_ != nullptr;
    ar.flag(saved_cpu);
    if (Ar::kLoading && saved_cpu != (self.cpu_ != nullptr)) {
        throw SerializeError(format(
            "snapshot CPU presence mismatch (saved {}, live {})",
            saved_cpu ? "yes" : "no", self.cpu_ ? "yes" : "no"));
    }
    for (unsigned s = 0; s < self.subch_.size(); ++s) {
        SubChannel::transfer(view(*self.subch_[s]), ar);
        if (s < self.faults_.size()) {
            FaultInjector::transfer(view(*self.faults_[s]), ar);
        }
        transferVirtual(view(*self.engines_[s]), ar);
        Controller::transfer(view(*self.controllers_[s]), ar);
    }
    if (self.cpu_) {
        Cpu::transfer(view(*self.cpu_), ar);
    }
    ar.u64(self.now_);
    ar.flag(self.timed_out_);
    ar.vecU8(self.measuring_);
    if (Ar::kLoading && !self.measuring_.empty() &&
        self.measuring_.size() != self.cfg_.num_cores) {
        throw SerializeError(format(
            "snapshot core count mismatch (saved {}, live {})",
            self.measuring_.size(), self.cfg_.num_cores));
    }
    ar.u64(self.wd_last_retired_);
    ar.u64(self.wd_last_progress_);
    ar.end();
}

MOPAC_TRANSFER_INSTANTIATE(System);

void
System::registerStats(StatRegistry &registry) const
{
    for (unsigned i = 0; i < subch_.size(); ++i) {
        const std::string prefix = "subch" + std::to_string(i) + ".";
        const SubChannelStats &ds = subch_[i]->stats();
        registry.addScalar(prefix + "dram.acts", &ds.acts);
        registry.addScalar(prefix + "dram.pres", &ds.pres);
        registry.addScalar(prefix + "dram.precus", &ds.precus);
        registry.addScalar(prefix + "dram.reads", &ds.reads);
        registry.addScalar(prefix + "dram.writes", &ds.writes);
        registry.addScalar(prefix + "dram.refs", &ds.refs);
        registry.addScalar(prefix + "dram.rfms", &ds.rfms);
        registry.addScalar(prefix + "dram.alerts", &ds.alerts);
        registry.addScalar(prefix + "dram.victim_refreshes",
                           &ds.victim_refreshes);

        const ControllerStats &cs = controllers_[i]->stats();
        registry.addScalar(prefix + "mc.reads_enqueued",
                           &cs.reads_enqueued);
        registry.addScalar(prefix + "mc.writes_enqueued",
                           &cs.writes_enqueued);
        registry.addScalar(prefix + "mc.cas_reads", &cs.cas_reads);
        registry.addScalar(prefix + "mc.cas_writes", &cs.cas_writes);
        registry.addScalar(prefix + "mc.row_hits", &cs.row_hits);
        registry.addScalar(prefix + "mc.refs_issued", &cs.refs_issued);
        registry.addScalar(prefix + "mc.rfms_issued", &cs.rfms_issued);
        registry.addScalar(prefix + "mc.alert_stall_cycles",
                           &cs.alert_stall_cycles);

        const EngineStats &es = engines_[i]->engineStats();
        registry.addScalar(prefix + "engine.counter_updates",
                           &es.counter_updates);
        registry.addScalar(prefix + "engine.selected_acts",
                           &es.selected_acts);
        registry.addScalar(prefix + "engine.mitigations",
                           &es.mitigations);
        registry.addScalar(prefix + "engine.alerts_requested",
                           &es.alerts_requested);
        registry.addScalar(prefix + "engine.srq_insertions",
                           &es.srq_insertions);
        registry.addScalar(prefix + "engine.srq_drains",
                           &es.srq_drains);
        registry.addScalar(prefix + "engine.ref_drains",
                           &es.ref_drains);
        registry.addScalar(prefix + "engine.tth_alerts",
                           &es.tth_alerts);
        registry.addScalar(prefix + "engine.srq_full_alerts",
                           &es.srq_full_alerts);

        if (i < faults_.size()) {
            const FaultStats &fs = faults_[i]->stats();
            for (unsigned k = 0; k < kNumFaultKinds; ++k) {
                registry.addScalar(
                    prefix + "faults." +
                        toString(static_cast<FaultKind>(k)),
                    &fs.fired[k]);
            }
        }
    }
}

RunResult
System::collectStats(Cycle now) const
{
    RunResult res;
    res.cycles = now;

    std::uint64_t cas = 0;
    std::uint64_t hits = 0;
    double latency_weighted = 0.0;
    std::uint64_t latency_count = 0;
    double act64 = 0.0;
    double act200 = 0.0;

    for (unsigned s = 0; s < subch_.size(); ++s) {
        const SubChannelStats &ds = subch_[s]->stats();
        res.acts += ds.acts;
        res.reads += ds.reads;
        res.writes += ds.writes;
        res.refs += ds.refs;
        res.rfms += ds.rfms;
        res.alerts += ds.alerts;
        cas += ds.reads + ds.writes;

        const ControllerStats &cs = controllers_[s]->stats();
        hits += cs.row_hits;
        latency_weighted += cs.read_latency.mean() *
                            static_cast<double>(
                                cs.read_latency.count());
        latency_count += cs.read_latency.count();

        const SecurityChecker &checker = subch_[s]->checker();
        res.max_unmitigated =
            std::max(res.max_unmitigated, checker.maxUnmitigated());
        res.violations += checker.violations();
        act64 += checker.act64PerBankPerEpoch();
        act200 += checker.act200PerBankPerEpoch();
        res.epochs =
            std::max(res.epochs, checker.epochsCompleted());

        const EngineStats &es = engines_[s]->engineStats();
        res.counter_updates += es.counter_updates;
        res.srq_insertions += es.srq_insertions;
        res.mitigations += es.mitigations;
        res.ref_drains += es.ref_drains;
    }
    res.faults_injected = faultsInjected();

    res.rbhr = cas > 0 ? static_cast<double>(hits) /
                             static_cast<double>(cas)
                       : 0.0;
    if (latency_count > 0) {
        res.avg_read_latency_ns =
            cyclesToNs(static_cast<Cycle>(
                latency_weighted / static_cast<double>(latency_count)));
    }
    const double ref_intervals =
        static_cast<double>(now) / static_cast<double>(normal_.tREFI);
    const double total_banks =
        static_cast<double>(subch_.size()) *
        cfg_.geometry.banks_per_subchannel;
    if (ref_intervals > 0.0) {
        res.apri = static_cast<double>(res.acts) /
                   (total_banks * ref_intervals);
    }
    res.act64 = act64 / static_cast<double>(subch_.size());
    res.act200 = act200 / static_cast<double>(subch_.size());
    return res;
}

} // namespace mopac
