/**
 * @file
 * Bank timing state for one sub-channel, struct-of-arrays layout.
 *
 * BankArray enforces every intra-bank command-to-command constraint:
 *
 *   ACT -> RD/WR : tRCD
 *   ACT -> PRE   : tRAS      (per precharge flavor; PRAC tRAS differs)
 *   PRE -> ACT   : tRP       (per precharge flavor)
 *   RD  -> PRE   : tRTP
 *   WR  -> PRE   : tCWL + tBL + tWR
 *
 * tRC is enforced implicitly as tRAS + tRP of the flavors actually
 * used (base: 32+14 = 46 ns; PRAC: 16+36 = 52 ns, matching Table 1).
 *
 * The scheduler queries *ReadyAt() to learn the earliest legal issue
 * cycle for each command, so it can also compute how long to sleep
 * when nothing is schedulable.  The layout is one parallel vector per
 * timing field (rather than a vector of per-bank objects) so the
 * scheduler's hot scans touch only the field they test, and an
 * open-bank bitmask lets drain/closure passes visit exactly the open
 * banks:
 *
 *   for (std::uint64_t m = banks.openMask(); m != 0; m &= m - 1) {
 *       const unsigned bank = std::countr_zero(m);   // ascending
 *       ...
 *   }
 *
 * Ready checks are branchless: the per-flavor tRAS / tRP live in
 * two-entry tables indexed by the counter-update flag, and the
 * open-row test is a single compare against kInvalid32 (openRow()
 * returns that sentinel for a closed bank, so row-match tests need no
 * separate open check).
 */

#ifndef MOPAC_DRAM_BANK_HH
#define MOPAC_DRAM_BANK_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/timing.hh"

namespace mopac
{

/** Timing state for every bank of a sub-channel (SoA). */
class BankArray
{
  public:
    /** openMask() is a 64-bit word. */
    static constexpr unsigned kMaxBanks = 64;

    /**
     * @param normal Timing set for regular commands (ACT/RD/WR/PRE).
     * @param cu Timing set used by counter-update precharges (PREcu);
     *        equal to @p normal for designs without PREcu.
     * @param count Banks in the sub-channel (at most kMaxBanks).
     */
    BankArray(const TimingSet *normal, const TimingSet *cu,
              unsigned count);

    unsigned size() const
    {
        return static_cast<unsigned>(open_row_.size());
    }

    /** Is any bank's row open? */
    bool anyOpen() const { return open_mask_ != 0; }

    /** Bit b set <=> bank b has an open row. */
    std::uint64_t openMask() const { return open_mask_; }

    /** True when bank @p b has a row open. */
    bool
    hasOpenRow(unsigned b) const
    {
        return open_row_[b] != kInvalid32;
    }

    /**
     * Bank @p b's open row; kInvalid32 when closed, so comparing the
     * result against a real row number needs no separate open check.
     */
    std::uint32_t openRow(unsigned b) const { return open_row_[b]; }

    /** Cycle at which bank @p b's current row was opened. */
    Cycle openSince(unsigned b) const { return open_since_[b]; }

    /** Cycle of the most recent CAS (RD/WR) to bank @p b's open row. */
    Cycle lastCas(unsigned b) const { return last_cas_[b]; }

    /** Earliest cycle an ACT may issue (bank must be closed). */
    Cycle actReadyAt(unsigned b) const { return act_ready_[b]; }

    /** Earliest cycle a RD may issue (row must be open). */
    Cycle readReadyAt(unsigned b) const { return cas_ready_[b]; }

    /** Earliest cycle a WR may issue (row must be open). */
    Cycle writeReadyAt(unsigned b) const { return cas_ready_[b]; }

    /** Earliest cycle a PRE / PREcu may issue on bank @p b. */
    Cycle
    preReadyAt(unsigned b, bool counter_update) const
    {
        const Cycle ras =
            last_act_[b] + tras_by_cu_[counter_update ? 1 : 0];
        const Cycle cas = pre_cas_constraint_[b];
        return ras > cas ? ras : cas;
    }

    /** Issue ACT: open @p row. Panics if constraints are violated. */
    void act(unsigned b, Cycle now, std::uint32_t row);

    /**
     * Issue RD on bank @p b.
     * @return Cycle at which the full burst has been delivered.
     */
    Cycle read(unsigned b, Cycle now);

    /** Issue WR on bank @p b. @return Cycle the burst completes. */
    Cycle write(unsigned b, Cycle now);

    /** Issue PRE/PREcu: close bank @p b's open row. */
    void pre(unsigned b, Cycle now, bool counter_update);

    /**
     * Block the (closed) bank @p b until @p until; used for REF / RFM
     * and ALERT stalls.
     */
    void blockUntil(unsigned b, Cycle until);

    /** blockUntil() on every bank (REF / RFM; all must be closed). */
    void blockAllUntil(Cycle until);

    /** Snapshot the mutable timing state of every bank. */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

  private:
    const TimingSet *normal_;
    // Per-flavor tRAS / tRP, copied out of the timing sets at
    // construction so preReadyAt()/pre() index them branchlessly;
    // [0] = normal PRE, [1] = PREcu.  Constants, nothing to snapshot.
    Cycle tras_by_cu_[2]; // mopac-lint: allow(serial-drift)
    Cycle trp_by_cu_[2];  // mopac-lint: allow(serial-drift)

    /** Open row per bank; kInvalid32 = closed. */
    std::vector<std::uint32_t> open_row_;
    std::vector<Cycle> open_since_;
    std::vector<Cycle> last_cas_;
    /** Earliest next ACT (tRP and blockUntil constraints). */
    std::vector<Cycle> act_ready_;
    /** Earliest next CAS (tRCD after ACT). */
    std::vector<Cycle> cas_ready_;
    /** Earliest next PRE due to RD/WR recovery (tRTP / tWR). */
    std::vector<Cycle> pre_cas_constraint_;
    /** Time of the ACT that opened the current row (tRAS base). */
    std::vector<Cycle> last_act_;

    // Derived from open_row_ (bit b <=> open); a snapshot load
    // rebuilds it from the restored rows instead of trusting extra
    // bytes.
    std::uint64_t open_mask_ = 0; // mopac-lint: allow(serial-drift)
};

} // namespace mopac

#endif // MOPAC_DRAM_BANK_HH
