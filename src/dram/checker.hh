/**
 * @file
 * Ground-truth Rowhammer security checker.
 *
 * Independently of any mitigation engine's own (possibly approximate)
 * counters, the checker keeps an oracle count of activations each row
 * has received since the last event that restored its victims:
 * the periodic refresh sweep covering the row, or a victim refresh of
 * the row itself.  The paper's threat model (§2.1) declares an attack
 * successful when any row receives more than T_RH activations without
 * an intervening mitigation or refresh; the checker records exactly
 * that, so tests can assert "max unmitigated activations < T_RH" for
 * every engine under every attack pattern.
 *
 * DRAM chips on a DIMM see the same command stream but, under MoPAC,
 * mitigate independently (their probabilistic counters desynchronize;
 * Appendix B).  A row's bits in chip c are only safe if *that chip*
 * refreshed the victims in time, so the oracle carries a chip
 * dimension; synchronized designs use chips = 1.
 *
 * The counts live in a RowStore: only the pages holding rows a run
 * activates are ever materialized.
 *
 * The checker can also track per-row activation counts per fixed-size
 * epoch to reproduce Table 4's ACT-64+ / ACT-200+ columns.
 */

#ifndef MOPAC_DRAM_CHECKER_HH
#define MOPAC_DRAM_CHECKER_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "dram/command.hh"
#include "dram/row_store.hh"
#include "dram/timing.hh"

namespace mopac
{

/** "All chips" selector for victim refreshes. */
constexpr unsigned kAllChips = ~0u;

/** Oracle activation tracking for one sub-channel. */
class SecurityChecker
{
  public:
    /**
     * @param banks Banks in the sub-channel.
     * @param rows Rows per bank.
     * @param chips Independent mitigation domains (DRAM chips).
     * @param trh Rowhammer threshold being defended.
     */
    SecurityChecker(unsigned banks, std::uint32_t rows, unsigned chips,
                    std::uint32_t trh);

    /** Record an activation of (bank, row) at @p now (all chips). */
    void onActivate(unsigned bank, std::uint32_t row, Cycle now);

    /** Periodic sweep refreshed rows [begin, end) in every bank. */
    void onSweep(std::uint32_t row_begin, std::uint32_t row_end);

    /**
     * A mitigation refreshed the victims of @p row in @p chip
     * (kAllChips for synchronized designs): reset the row's oracle
     * count there; each victim (blast radius 2) is itself activated
     * once in that chip.
     */
    void onVictimRefresh(unsigned chip, unsigned bank, std::uint32_t row,
                         Cycle now);

    /** Largest oracle count ever observed (post-increment). */
    std::uint32_t maxUnmitigated() const { return max_unmitigated_; }

    /** Number of activations that exceeded T_RH unmitigated. */
    std::uint64_t violations() const { return violations_; }

    std::uint32_t trh() const { return trh_; }
    unsigned chips() const { return counts_.chips(); }

    /** Current oracle count for a row in a chip. */
    std::uint32_t count(unsigned chip, unsigned bank,
                        std::uint32_t row) const;

    /**
     * Enable per-epoch hot-row tracking (Table 4 ACT-64+/200+).
     * @param epoch_cycles Epoch length; the paper uses tREFW (32 ms).
     * @param hi1 Activation count qualifying a row as "ACT-64+"
     *        (scale it with the epoch: 64 * epoch / tREFW).
     * @param hi2 Count qualifying as "ACT-200+".
     */
    void enableEpochTracking(Cycle epoch_cycles, std::uint32_t hi1 = 64,
                             std::uint32_t hi2 = 200);

    /** Close the current partial epoch and fold it into the stats. */
    void finalizeEpoch();

    /** Mean rows per bank per epoch with >= 64 activations. */
    double act64PerBankPerEpoch() const;

    /** Mean rows per bank per epoch with >= 200 activations. */
    double act200PerBankPerEpoch() const;

    std::uint64_t epochsCompleted() const { return epochs_; }

    /**
     * Snapshot the oracle counts and epoch tracking state; a load
     * throws on a shape mismatch.
     */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

  private:
    void bumpChip(unsigned chip, unsigned bank, std::uint32_t row);
    void rollEpoch(Cycle now);

    std::uint32_t trh_;
    /**
     * Chip-minor layout: the chips() counts of one (bank, row) are
     * adjacent, so onActivate's per-chip bump touches one cache line
     * instead of striding banks*rows words per chip.  The snapshot
     * stream is chip-major either way (RowStore::transfer).
     */
    RowStore counts_;
    std::uint32_t max_unmitigated_ = 0;
    std::uint64_t violations_ = 0;

    // Epoch tracking (optional; activations are identical across
    // chips, so epochs are tracked once).
    bool epoch_enabled_ = false;
    Cycle epoch_len_ = 0;
    std::uint32_t epoch_hi1_ = 64;
    std::uint32_t epoch_hi2_ = 200;
    Cycle epoch_start_ = 0;
    std::vector<std::unordered_map<std::uint32_t, std::uint32_t>>
        epoch_counts_;
    std::uint64_t epochs_ = 0;
    std::uint64_t rows_act64_ = 0;
    std::uint64_t rows_act200_ = 0;
};

/** One recorded DRAM protocol (timing) violation. */
struct TimingViolation
{
    /** The offending command. */
    DramCommand cmd = DramCommand::kAct;
    unsigned bank = 0;
    /** Cycle the command was issued. */
    Cycle at = 0;
    /** Earliest cycle it would have been legal. */
    Cycle earliest = 0;
    /** The violated rule, e.g. "tRP" or "tRC". */
    std::string rule;
};

/**
 * DRAM protocol (timing) oracle for one sub-channel's command stream.
 *
 * Independently of the scheduler's own BankTiming bookkeeping, the
 * checker re-derives the earliest legal issue cycle of every command
 * from the raw TimingSet and records a TimingViolation whenever a
 * command arrives early (or in an illegal bank state, e.g. ACT to an
 * open bank).  Unlike BankTiming it never panics, so property tests
 * can feed it deliberately broken traces and count exactly which
 * rules fired.
 *
 * Checked intra-bank rules: tRC (ACT->ACT), tRP (PRE->ACT),
 * tRAS (ACT->PRE), tRCD (ACT->RD/WR), tRTP (RD->PRE) and write
 * recovery (WR->PRE), plus open/closed-state validity.  Precharge
 * flavors use their own timing set (PRE vs PREcu), mirroring
 * BankTiming's dual-set model.
 */
class ProtocolChecker
{
  public:
    /**
     * @param normal Timing set for regular commands.
     * @param cu Timing set used by counter-update precharges (PREcu);
     *        pass @p normal for designs without PREcu.
     * @param banks Banks in the sub-channel.
     */
    ProtocolChecker(const TimingSet &normal, const TimingSet &cu,
                    unsigned banks);

    /** Record command @p cmd to @p bank at cycle @p now. */
    void onCommand(DramCommand cmd, unsigned bank, Cycle now);

    /** All violations recorded so far, in command order. */
    const std::vector<TimingViolation> &violations() const
    {
        return violations_;
    }

    /** Total commands checked. */
    std::uint64_t commands() const { return commands_; }

    /** Violations of one specific rule. */
    std::uint64_t countRule(const std::string &rule) const;

  private:
    /** Per-bank protocol state, re-derived from scratch. */
    struct BankState
    {
        bool open = false;
        /** Which precharge flavor closed the bank last. */
        bool last_pre_was_cu = false;
        Cycle last_act = 0;
        Cycle last_pre = 0;
        Cycle last_read = 0;
        Cycle last_write_end = 0;
        bool ever_activated = false;
        bool ever_precharged = false;
        bool ever_read = false;
        bool ever_written = false;
    };

    void report(DramCommand cmd, unsigned bank, Cycle now,
                Cycle earliest, const char *rule);

    TimingSet normal_;
    TimingSet cu_;
    std::vector<BankState> banks_;
    std::vector<TimingViolation> violations_;
    std::uint64_t commands_ = 0;
};

} // namespace mopac

#endif // MOPAC_DRAM_CHECKER_HH
