/**
 * @file
 * Deterministic fault injection for the PRAC+ABO stack.
 *
 * A FaultPlan describes which links of the mitigation chain misbehave
 * (dropped/delayed ALERT pulses, truncated ABO drains, PRAC counter
 * corruption, per-chip mitigation suppression, RFM starvation,
 * stuck-open banks) and how often.  A FaultInjector executes one plan
 * for one sub-channel: every decision is drawn from a counter-mode RNG
 * stream derived from (plan seed, sub-channel index), so a fault
 * schedule is bit-reproducible at any --jobs count, exactly like the
 * experiment points themselves.
 *
 * The injector is queried from the dram/mc/mitigation layers, which
 * sit *below* mopac_sim in the link order.  To avoid a dependency
 * cycle, every hook on the hot path is inline in this header (it only
 * needs common/); faults.cc (in mopac_sim) holds the parse/summary
 * code only.  Lower layers reach the injector through
 * DramBackend::faults(), which returns nullptr when no plan is active
 * -- a disabled plan leaves every layer on its exact pre-fault path.
 */

#ifndef MOPAC_SIM_FAULTS_HH
#define MOPAC_SIM_FAULTS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/types.hh"

namespace mopac
{

class Config;

/** Which link of the mitigation chain a fault breaks. */
enum class FaultKind : unsigned
{
    /** requestAlert() silently lost (ALERT pulse never latched). */
    kAlertDrop,
    /** ALERT asserted late: the MC observes it @c duration later. */
    kAlertDelay,
    /** The MC delays entering the ABO drain by @c duration (starved RFM). */
    kRfmStarve,
    /** An RFM's engine service is cut short (partial ABO drain). */
    kAboTruncate,
    /** A PRAC counter update lands with one bit flipped. */
    kCounterBitflip,
    /** A PRAC counter update saturates to the field maximum. */
    kCounterSaturate,
    /** A PRAC counter update resets the counter to zero. */
    kCounterReset,
    /** A victim refresh is skipped ("weak sampler" chip). */
    kMitigationSuppress,
    /** A PRE silently fails: the bank row stays open for @c duration. */
    kStuckOpenBank,
};

/** Number of fault kinds (array sizing). */
constexpr unsigned kNumFaultKinds = 9;

/** Printable / parseable name of a fault kind (e.g. "alert_drop"). */
const char *toString(FaultKind kind);

/** Parse a fault-kind name; returns false when unknown. */
bool parseFaultKind(const std::string &name, FaultKind &out);

/** Matches any chip in per-chip fault specs. */
constexpr unsigned kFaultAnyChip = ~0u;

/** How one fault kind fires. */
struct FaultSpec
{
    /**
     * Bernoulli probability per opportunity (scaled by the plan
     * intensity).  An "opportunity" is one query of the matching hook:
     * one requestAlert(), one counter update, one victim refresh...
     */
    double rate = 0.0;
    /**
     * One-shot schedule: fire at the first opportunity at or after
     * this cycle (in addition to any rate).  kNeverCycle = unscheduled.
     */
    Cycle at = kNeverCycle;
    /** Effect length in cycles for timed kinds; 0 = kind default. */
    Cycle duration = 0;
    /** Restrict per-chip kinds to one chip; kFaultAnyChip = all. */
    unsigned chip = kFaultAnyChip;
};

/** A complete, deterministic fault schedule description. */
struct FaultPlan
{
    /** Master seed of the fault streams; 0 = derive from the run seed. */
    std::uint64_t seed = 0;
    /** Global scale on every rate (the chaos-sweep ramp knob). */
    double intensity = 1.0;
    /** One spec per FaultKind, indexed by static_cast<unsigned>. */
    std::array<FaultSpec, kNumFaultKinds> specs{};

    FaultSpec &
    spec(FaultKind kind)
    {
        return specs[static_cast<unsigned>(kind)];
    }

    const FaultSpec &
    spec(FaultKind kind) const
    {
        return specs[static_cast<unsigned>(kind)];
    }

    /**
     * Does any fault ever fire?  False for the default plan and for
     * any plan ramped to zero intensity: the System then builds no
     * injector at all, keeping every hook on its pre-fault path.
     */
    bool
    enabled() const
    {
        for (const FaultSpec &s : specs) {
            if ((s.rate > 0.0 && intensity > 0.0) ||
                s.at != kNeverCycle) {
                return true;
            }
        }
        return false;
    }

    /** Convenience: a plan with a single rate-based fault. */
    static FaultPlan single(FaultKind kind, double rate,
                            Cycle duration = 0,
                            unsigned chip = kFaultAnyChip);

    /**
     * Parse the "faults.*" key family:
     *   faults.seed / faults.intensity
     *   faults.<kind>          = rate
     *   faults.<kind>.at       = one-shot cycle
     *   faults.<kind>.cycles   = effect duration
     *   faults.<kind>.chip     = target chip
     * fatal()s on any unrecognized faults.* key.
     */
    static FaultPlan fromConfig(const Config &conf);

    /** One-line human summary of the active faults. */
    std::string summary() const;

    /** Deterministic cache-key fragment (see configSignature()). */
    std::string signature() const;

    /**
     * Snapshot the mutable schedule state: the pending one-shot cycle
     * of every spec, the only field that changes after construction
     * (a one-shot is consumed when it fires).  seed/intensity and the
     * rates/durations/chips are plan parameters; the restoring side
     * is built from the same plan.
     */
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        for (auto &s : self.specs) {
            ar.u64(s.at);
        }
    }
};

/** Per-kind count of faults that actually fired. */
struct FaultStats
{
    std::array<std::uint64_t, kNumFaultKinds> fired{};

    std::uint64_t
    total() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t f : fired) {
            sum += f;
        }
        return sum;
    }

    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        for (auto &f : self.fired) {
            ar.u64(f);
        }
    }
};

/**
 * Severity classification of one run, fault-aware:
 *   kOk       -- finished clean, no fault fired.
 *   kDegraded -- faults fired, but the security guarantee held.
 *   kViolated -- the ground-truth oracle saw ACTs beyond T_RH (or the
 *                run crashed outright).
 *   kHung     -- forward progress stopped (watchdog / cycle guard).
 */
enum class OutcomeClass
{
    kOk,
    kDegraded,
    kViolated,
    kHung,
};

/** Printable name of an outcome class. */
const char *toString(OutcomeClass outcome);

/**
 * Executes one FaultPlan for one sub-channel.  All hooks are inline:
 * with no injector attached (the universal no-fault case) the only
 * cost at any call site is a nullptr test.
 */
class FaultInjector
{
  public:
    /**
     * @param plan The schedule to execute.
     * @param run_seed Experiment-point seed, used when plan.seed == 0.
     * @param subchannel This sub-channel's index (stream id).
     */
    FaultInjector(const FaultPlan &plan, std::uint64_t run_seed,
                  unsigned subchannel)
        : plan_(plan),
          rng_(Rng::forStream(plan.seed != 0 ? plan.seed : run_seed,
                              0x0FA01700ull + subchannel))
    {
        for (unsigned k = 0; k < kNumFaultKinds; ++k) {
            FaultSpec &s = plan_.specs[k];
            s.rate = s.rate * plan_.intensity;
            if (s.rate < 0.0) {
                s.rate = 0.0;
            } else if (s.rate > 1.0) {
                s.rate = 1.0;
            }
        }
        // Preallocate the stuck-open windows: stickBankOpen() sits on
        // the precharge hot path, where growing a vector is forbidden.
        stuck_until_.assign(kMaxBanks, 0);
    }

    /** The (intensity-folded) plan this injector executes. */
    const FaultPlan &plan() const { return plan_; }

    /** Counts of faults that fired so far. */
    const FaultStats &stats() const { return stats_; }

    // ---- Hooks, one per FaultKind, called from the device layers ----

    /** SubChannel::requestAlert: swallow the request? */
    bool
    dropAlert(Cycle now)
    {
        return fires(FaultKind::kAlertDrop, now);
    }

    /** SubChannel alert assertion: extra observation latency. */
    Cycle
    alertAssertDelay(Cycle now)
    {
        if (!fires(FaultKind::kAlertDelay, now)) {
            return 0;
        }
        return durationOf(FaultKind::kAlertDelay);
    }

    /** Controller ALERT-episode entry: extra cycles before the drain. */
    Cycle
    rfmStarveDelay(Cycle now)
    {
        if (!fires(FaultKind::kRfmStarve, now)) {
            return 0;
        }
        return durationOf(FaultKind::kRfmStarve);
    }

    /** Engine onRfm: cut this ABO service short? */
    bool
    truncateAboService(Cycle now)
    {
        return fires(FaultKind::kAboTruncate, now);
    }

    /**
     * Counter RMW in @p chip just produced @p value: corrupt it?
     * Applies bitflip, then saturate, then reset (independent draws);
     * @p value is rewritten in place and must be stored back by the
     * caller when true is returned.
     */
    bool
    corruptCounter(unsigned chip, std::uint32_t &value, Cycle now)
    {
        bool corrupted = false;
        if (chipMatches(FaultKind::kCounterBitflip, chip) &&
            fires(FaultKind::kCounterBitflip, now)) {
            value ^= 1u << rng_.below(kCounterBits);
            corrupted = true;
        }
        if (chipMatches(FaultKind::kCounterSaturate, chip) &&
            fires(FaultKind::kCounterSaturate, now)) {
            value = (1u << kCounterBits) - 1;
            corrupted = true;
        }
        if (chipMatches(FaultKind::kCounterReset, chip) &&
            fires(FaultKind::kCounterReset, now)) {
            value = 0;
            corrupted = true;
        }
        return corrupted;
    }

    /**
     * SubChannel::victimRefresh targeting @p chip (kAllChips for
     * synchronized designs): skip the refresh?  A chip-restricted
     * spec models one weak chip; a synchronized refresh counts as
     * touching every chip, so it matches too.
     */
    bool
    suppressVictimRefresh(unsigned chip, Cycle now)
    {
        if (!chipMatches(FaultKind::kMitigationSuppress, chip)) {
            return false;
        }
        return fires(FaultKind::kMitigationSuppress, now);
    }

    /**
     * SubChannel::cmdPre on @p bank: does the precharge silently fail?
     * Once a bank sticks, every PRE during the window fails (counted
     * once per window).
     */
    bool
    stickBankOpen(unsigned bank, Cycle now)
    {
        if (bank >= stuck_until_.size()) {
            // Beyond the preallocated bound (no geometry produces
            // this many banks per sub-channel): never stick, and draw
            // nothing so the RNG stream is untouched.
            return false;
        }
        if (now < stuck_until_[bank]) {
            return true;
        }
        if (!fires(FaultKind::kStuckOpenBank, now)) {
            return false;
        }
        const Cycle dur = durationOf(FaultKind::kStuckOpenBank);
        stuck_until_[bank] =
            dur > kNeverCycle - now ? kNeverCycle : now + dur;
        return true;
    }

    /**
     * Snapshot the mutable schedule state: pending one-shot cycles
     * (consumed as they fire), the RNG stream, fired counts, and the
     * stuck-open windows.  The rates/durations/chips of the plan are
     * construction parameters and are not saved; the restoring side
     * must be built from the same plan.
     */
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        FaultPlan::transfer(self.plan_, ar);
        Rng::transfer(self.rng_, ar);
        FaultStats::transfer(self.stats_, ar);
        ar.vecU64(self.stuck_until_);
    }

  private:
    /** In-row PRAC counter field width (see PracCounters). */
    static constexpr unsigned kCounterBits = 22;

    /**
     * Stuck-open window bound.  Per-sub-channel bank counts top out
     * at 64 everywhere (RequestQueue::init() asserts it), so one
     * cache line of windows covers every geometry.
     */
    static constexpr unsigned kMaxBanks = 64;

    bool
    chipMatches(FaultKind kind, unsigned chip) const
    {
        const unsigned target = plan_.spec(kind).chip;
        // kFaultAnyChip == kAllChips == ~0u: an unrestricted spec
        // matches everything, and a synchronized (all-chip) refresh
        // includes whichever chip a restricted spec names.
        return target == kFaultAnyChip || chip == kFaultAnyChip ||
               chip == target;
    }

    /** Effect length for timed kinds (0 in the spec = kind default). */
    Cycle
    durationOf(FaultKind kind) const
    {
        const Cycle d = plan_.spec(kind).duration;
        if (d != 0) {
            return d;
        }
        switch (kind) {
          case FaultKind::kAlertDelay: return nsToCycles(500.0);
          case FaultKind::kRfmStarve: return nsToCycles(2000.0);
          case FaultKind::kStuckOpenBank: return nsToCycles(2000.0);
          default: return 0;
        }
    }

    /**
     * One fault opportunity for @p kind at @p now.  A scheduled
     * one-shot fires exactly once, at the first opportunity at or
     * after its cycle; rates fire as independent Bernoulli draws.
     */
    bool
    fires(FaultKind kind, Cycle now)
    {
        FaultSpec &s = plan_.specs[static_cast<unsigned>(kind)];
        if (s.at != kNeverCycle && now >= s.at) {
            s.at = kNeverCycle;
            ++stats_.fired[static_cast<unsigned>(kind)];
            return true;
        }
        if (s.rate > 0.0 && rng_.chance(s.rate)) {
            ++stats_.fired[static_cast<unsigned>(kind)];
            return true;
        }
        return false;
    }

    FaultPlan plan_;
    Rng rng_;
    FaultStats stats_;
    /** Per-bank stuck-open windows (grown on demand). */
    std::vector<Cycle> stuck_until_;
};

} // namespace mopac

#endif // MOPAC_SIM_FAULTS_HH
