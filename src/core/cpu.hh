/**
 * @file
 * Multi-core wrapper: owns the cores, routes completions, and
 * computes weighted-speedup inputs.
 */

#ifndef MOPAC_CORE_CPU_HH
#define MOPAC_CORE_CPU_HH

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "common/log.hh"
#include "core/core.hh"
#include "mc/request.hh"

namespace mopac
{

/** The chip multiprocessor: N trace-driven cores. */
class Cpu : public MemClient
{
  public:
    /**
     * Period of the run loop's aligned core-state polls (the
     * watchdog reads every core's retired count on these cycles).
     */
    static constexpr Cycle kPollPeriod = 1024;

    /**
     * @param params Per-core parameters (identical cores).
     * @param traces One trace per core (not owned).
     * @param target_insts Instructions each core must retire.
     * @param sink Memory request destination (not owned).
     * @param warmup_insts Retired count at which the run loop starts
     *        each core's measured interval (an observation point).
     * @param lookahead Cycles a fast-forward window may run past the
     *        tick that opened it: one less than the shortest delay
     *        from a read's CAS to its data.  0 disables windows.
     */
    Cpu(const CoreParams &params,
        const std::vector<TraceSource *> &traces,
        std::uint64_t target_insts, RequestSink *sink,
        std::uint64_t warmup_insts = 0, Cycle lookahead = 0);

    /**
     * Advance every core one cycle.
     *
     * Cores sleeping on their wake bound are skipped outright; everyone
     * else ticks -- no short-circuit.  A core whose tick changed state
     * then fast-forwards (Core::fastForward) through the following
     * cycles that only release MSHRs, retire, fetch or sleep, and its
     * wake bound becomes the first cycle after the window.  Windows
     * never reach a cycle at which something outside the core could
     * change it or read it:
     *
     *  - completions: a window ends within lookahead cycles of the tick
     *    that opened it, and read data lands later than that after the
     *    CAS (memComplete asserts it);
     *  - observers: the run loop reads retired counts right after this
     *    call -- when a core reaches warmup_insts or its target, and at
     *    every kPollPeriod-aligned cycle -- and may pause before the
     *    setPauseAt() cycle.  A tick whose retirement reaches either
     *    threshold opens no window, windows stop before any cycle
     *    whose retirement would, and no window runs past the next
     *    aligned poll or the pause.
     *
     * The wake bounds live in one contiguous array so the common
     * all-asleep scan touches no Core object at all.
     *
     * @return true when some core must tick again at now + 1.
     */
    // mopac: hot-path
    bool
    tick(Cycle now)
    {
        if (now < next_wake_min_) {
            // Every core sleeps: the bounds and their minimum stand.
            return next_wake_min_ == now + 1;
        }
        // The last cycle any window opened now may simulate: the
        // next aligned poll (none when now is one), or the pause.
        const Cycle last = std::min(
            {now + lookahead_, pause_at_ - 1,
             (now + kPollPeriod - 1) & ~(kPollPeriod - 1)});
        Cycle next = kNeverCycle;
        Cycle *wake = wake_.data();
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            if (now < wake[i]) {
                next = std::min(next, wake[i]);
                continue;
            }
            Core &core = cores_[i];
            const std::uint64_t before = core.retiredInsts();
            if (!core.tick(now)) {
                wake[i] = core.nextSelfEventAt(now);
            } else {
                const std::uint64_t after = core.retiredInsts();
                if (before < target_ && after >= target_) {
                    ++done_count_;
                }
                if ((before <= warmup_ && warmup_ <= after) ||
                    (before <= target_ && target_ <= after)) {
                    // The run loop observes this tick's count.
                    wake[i] = now + 1;
                } else {
                    wake[i] = core.fastForward(now, last,
                                               retireCap(after));
                }
            }
            next = std::min(next, wake[i]);
        }
        next_wake_min_ = next;
        return next <= now + 1;
    }

    /**
     * Next-event contract: earliest self-wakeup across all cores.
     * This is the minimum of the per-core wake bounds tick()
     * maintains -- each bound certifies its core needs no tick
     * strictly before it (Core::nextSelfEventAt, or the end of a
     * fast-forward window), so their minimum is the earliest possible
     * self-originated change.  The minimum is folded incrementally
     * (tick() while it walks the bounds anyway, memComplete() when it
     * lowers one), so this is a cached load -- the event probe
     * touches no array at all.
     */
    // mopac: hot-path
    Cycle
    nextSelfEventAt(Cycle) const
    {
        return next_wake_min_;
    }

    /**
     * Pause horizon: no fast-forward window simulates @p stop_at or
     * later, so a run loop that stops there sees every core exactly at
     * stop_at - 1.  The default (kNeverCycle) suits a loop that never
     * pauses.
     */
    void setPauseAt(Cycle stop_at) { pause_at_ = stop_at; }

    /** All cores reached their instruction target? */
    bool allDone() const { return done_count_ == cores_.size(); }

    /** MemClient: dispatch a read completion to its core. */
    // mopac: hot-path
    void
    memComplete(const Request &req, Cycle done_cycle) override
    {
        Core &core = cores_[req.core_id];
        // The data must land after every cycle the core has already
        // simulated; the lookahead bound guarantees it.
        MOPAC_ASSERT(done_cycle > core.windowEnd());
        // External wakeup, but nothing the completion changes can act
        // before its data arrives.
        wake_[req.core_id] = std::min(wake_[req.core_id], done_cycle);
        next_wake_min_ = std::min(next_wake_min_, done_cycle);
        core.onReadComplete(req.req_id, done_cycle);
    }

    /** Start the measured interval on every core. */
    void
    startMeasurement(Cycle now)
    {
        for (auto &core : cores_) {
            core.startMeasurement(now);
        }
    }

    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    Core &core(unsigned i) { return cores_.at(i); }
    const Core &core(unsigned i) const { return cores_.at(i); }

    /** Per-core IPC over the measured interval. */
    std::vector<double> measuredIpcs() const;

    /** Snapshot every core (trace sources snapshot separately). */
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        for (auto &core : self.cores_) {
            Core::transfer(core, ar);
        }
        if constexpr (Ar::kLoading) {
            self.done_count_ = 0;
            for (const auto &core : self.cores_) {
                self.done_count_ += core.done() ? 1 : 0;
            }
            // The restored cores may be runnable immediately; the
            // bounds rebuild themselves on the next tick of each core.
            self.wake_.assign(self.cores_.size(), 0);
            self.next_wake_min_ = 0;
        }
    }

  private:
    /** Smallest observed retired count above @p retired. */
    std::uint64_t
    retireCap(std::uint64_t retired) const
    {
        std::uint64_t cap = std::numeric_limits<std::uint64_t>::max();
        if (warmup_ > retired) {
            cap = warmup_;
        }
        if (target_ > retired) {
            cap = std::min(cap, target_);
        }
        return cap;
    }

    /** Contiguous core storage: the tick scan is a linear walk. */
    std::vector<Core> cores_;
    // Construction-time thresholds and lookahead (the System derives
    // them from its own config before a snapshot loads).
    std::uint64_t target_;  // mopac-lint: allow(serial-drift)
    std::uint64_t warmup_;  // mopac-lint: allow(serial-drift)
    Cycle lookahead_;       // mopac-lint: allow(serial-drift)
    /**
     * Pause horizon (setPauseAt).  Set by the run loop on every call;
     * scratch, never serialized.
     */
    Cycle pause_at_ = kNeverCycle; // mopac-lint: allow(serial-drift)
    /**
     * Per-core wake bound: core i needs no tick at any cycle <
     * wake_[i] (Core::nextSelfEventAt or a fast-forward window's end).
     * Scratch, derived from core state; never serialized -- a snapshot
     * load resets it.
     */
    std::vector<Cycle> wake_; // mopac-lint: allow(serial-drift)
    /**
     * Cached min over wake_, maintained at every mutation (tick,
     * memComplete, snapshot load) so nextSelfEventAt() is one load.
     * Scratch like wake_ itself.
     */
    Cycle next_wake_min_ = 0; // mopac-lint: allow(serial-drift)
    /** Cores with done() set; rebuilt by a snapshot load. */
    std::size_t done_count_ = 0; // mopac-lint: allow(serial-drift)
};

} // namespace mopac

#endif // MOPAC_CORE_CPU_HH
