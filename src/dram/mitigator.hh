/**
 * @file
 * Interfaces between the DRAM device and Rowhammer mitigation engines.
 *
 * One Mitigator instance guards one sub-channel (ABO/ALERT is
 * sub-channel wide).  The device forwards command events to the
 * engine; the engine acts on the device through DramBackend (asserting
 * ALERT, performing victim refreshes).  Implementations live in
 * src/mitigation.
 */

#ifndef MOPAC_DRAM_MITIGATOR_HH
#define MOPAC_DRAM_MITIGATOR_HH

#include <cstdint>
#include <string>

#include "common/serialize.hh"
#include "common/types.hh"
#include "dram/checker.hh"
#include "dram/geometry.hh"

namespace mopac
{

class FaultInjector;

/** Counters every mitigation engine maintains (unused fields stay 0). */
struct EngineStats
{
    /** PRAC counter read-modify-writes performed. */
    std::uint64_t counter_updates = 0;
    /** Activations selected for counter update (MC side, MoPAC-C). */
    std::uint64_t selected_acts = 0;
    /** Victim refreshes performed (aggressor mitigations). */
    std::uint64_t mitigations = 0;
    /** ALERT assertions requested by this engine. */
    std::uint64_t alerts_requested = 0;
    /** ALERTs requested because a PRAC counter reached ATH*. */
    std::uint64_t ath_alerts = 0;
    /** SRQ insertions (MoPAC-D; summed over chips). */
    std::uint64_t srq_insertions = 0;
    /** SRQ selections coalesced into an existing entry. */
    std::uint64_t srq_coalesced = 0;
    /** SRQ entries drained (counter updates from the SRQ). */
    std::uint64_t srq_drains = 0;
    /** ALERTs requested because an SRQ became full. */
    std::uint64_t srq_full_alerts = 0;
    /** ALERTs requested because an entry exceeded the TTH. */
    std::uint64_t tth_alerts = 0;
    /** SRQ entries drained during REF (drain-on-REF). */
    std::uint64_t ref_drains = 0;

    /** Snapshot the block (field order is the format). */
    template <class Self, class Ar>
    static void
    transfer(Self &s, Ar &ar)
    {
        ar.u64(s.counter_updates);
        ar.u64(s.selected_acts);
        ar.u64(s.mitigations);
        ar.u64(s.alerts_requested);
        ar.u64(s.ath_alerts);
        ar.u64(s.srq_insertions);
        ar.u64(s.srq_coalesced);
        ar.u64(s.srq_drains);
        ar.u64(s.srq_full_alerts);
        ar.u64(s.tth_alerts);
        ar.u64(s.ref_drains);
    }
};

/**
 * Services the DRAM device offers to a mitigation engine.
 */
class DramBackend
{
  public:
    virtual ~DramBackend() = default;

    /**
     * Request assertion of the sub-channel ALERT pin.  Per the ABO
     * specification there must be a non-zero number of activations
     * between two ALERTs; if none has occurred since the last RFM the
     * request is latched and asserted on the next ACT.
     */
    virtual void requestAlert() = 0;

    /**
     * Refresh the victims of @p row (blast radius 2: the four
     * neighboring rows) in @p chip, or in every chip when @p chip is
     * kAllChips (synchronized designs).  Resets the aggressor's
     * ground-truth hammer count in the affected chips; the refresh
     * itself activates each victim once there.
     */
    virtual void victimRefresh(unsigned bank, std::uint32_t row,
                               unsigned chip) = 0;

    /** Memory organization. */
    virtual const Geometry &geometry() const = 0;

    /**
     * Active fault injector, or nullptr (the default, and the
     * universal case for an all-zero FaultPlan): engines must treat
     * nullptr as "no faults" and take their exact normal path.
     */
    virtual FaultInjector *faults() { return nullptr; }

    /** Timestamp of the command currently executing. */
    virtual Cycle now() const { return 0; }
};

/**
 * A Rowhammer mitigation engine for one sub-channel.
 *
 * Event order for one activation cycle is:
 *   1. MC decides the precharge flavor via selectForUpdate() when it
 *      issues the ACT (MoPAC-C's probabilistic choice; deterministic
 *      PRAC always returns true; in-DRAM designs return false).
 *   2. onActivate() when the ACT executes.
 *   3. onPrechargeUpdate() if the row is closed with PREcu.
 *   4. onPrecharge() always, with the row-open interval (Row-Press).
 */
class Mitigator
{
  public:
    virtual ~Mitigator() = default;

    /** Human-readable engine name (for stats / tables). */
    virtual std::string name() const = 0;

    /**
     * MC-side decision: must the precharge closing this activation
     * perform a counter update (PREcu)?
     */
    virtual bool selectForUpdate(unsigned bank, std::uint32_t row,
                                 Cycle now) = 0;

    /** An ACT to (bank, row) executed. */
    virtual void onActivate(unsigned bank, std::uint32_t row,
                            Cycle now) = 0;

    /** A PREcu for (bank, row) executed: perform the counter RMW. */
    virtual void onPrechargeUpdate(unsigned bank, std::uint32_t row,
                                   Cycle now) = 0;

    /**
     * Any precharge executed.  @p open_cycles is the row-open
     * interval, used by Row-Press-aware variants.
     */
    virtual void
    onPrecharge(unsigned bank, std::uint32_t row, Cycle now,
                Cycle open_cycles)
    {
        (void)bank; (void)row; (void)now; (void)open_cycles;
    }

    /**
     * The periodic refresh sweep refreshed rows
     * [row_begin, row_end) in every bank: per-row state for those rows
     * must be reset.  Called before onRefresh().
     */
    virtual void onRefreshSweep(std::uint32_t row_begin,
                                std::uint32_t row_end) = 0;

    /**
     * A REF command executed (time budget for drain-on-REF or for
     * related-work trackers' mitigations).
     */
    virtual void onRefresh(Cycle now) = 0;

    /** The RFM issued in response to ABO executed: service the ALERT. */
    virtual void onRfm(Cycle now) = 0;

    /**
     * A victim refresh activated @p row once in @p chip -- kAllChips
     * when every chip refreshed (footnote 5 of the paper): the
     * engine's per-row counters must count that activation.
     */
    virtual void onNeighborRefresh(unsigned bank, std::uint32_t row,
                                   unsigned chip) = 0;

    /** Engine statistics. */
    virtual const EngineStats &engineStats() const = 0;

    /**
     * Checkpoint every mutable field of the engine, including private
     * RNG streams, so a restored engine continues bit-identically.
     * An engine overrides both with one-line forwards to its
     * transfer body.  Engines that skip the override make whole-System
     * snapshots fail loudly instead of silently losing mitigation
     * state.
     */
    virtual void
    saveState(Serializer &ser) const
    {
        (void)ser;
        throw SerializeError("mitigation engine does not support "
                             "checkpointing");
    }

    /** Restore state saved by saveState(); throws on a mismatch. */
    virtual void
    loadState(Deserializer &des)
    {
        (void)des;
        throw SerializeError("mitigation engine does not support "
                             "checkpointing");
    }
};

} // namespace mopac

#endif // MOPAC_DRAM_MITIGATOR_HH
