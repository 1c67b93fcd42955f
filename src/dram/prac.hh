/**
 * @file
 * PRAC per-row activation counter storage.
 *
 * PRAC (Per-Row Activation Counting) extends every DRAM row with a
 * counter that is read-modified-written during precharge.  Counters
 * are physically per chip: a deterministic design keeps all chips
 * synchronized (one logical copy suffices), while MoPAC's
 * probabilistic updates desynchronize them, so MoPAC-D instantiates
 * one copy per chip (Appendix B).
 *
 * Counters are reset when the row is refreshed: either by the
 * periodic tREFW sweep or by a mitigation's victim refresh.
 *
 * The words live in a RowStore, so only the pages a run's updates
 * reach are ever materialized.
 */

#ifndef MOPAC_DRAM_PRAC_HH
#define MOPAC_DRAM_PRAC_HH

#include <cstdint>

#include "dram/row_store.hh"

namespace mopac
{

/** Per-chip, per-bank, per-row activation counters. */
class PracCounters
{
  public:
    /**
     * @param banks Banks in this sub-channel.
     * @param rows Rows per bank.
     * @param chips Independent counter copies (1 when synchronized).
     */
    PracCounters(unsigned banks, std::uint32_t rows, unsigned chips = 1);

    /** Saturation limit of the in-row counter field (22 bits). */
    static constexpr std::uint32_t kMax = (1u << 22) - 1;

    unsigned banks() const { return data_.banks(); }
    std::uint32_t rows() const { return data_.rows(); }
    unsigned chips() const { return data_.chips(); }

    /** Current counter value. */
    std::uint32_t
    get(unsigned chip, unsigned bank, std::uint32_t row) const
    {
        return data_.get(chip, bank, row);
    }

    /**
     * Add @p inc to a counter (saturating at 2^22-1, the field width a
     * 3-byte in-row counter would provide).
     * @return The post-increment value.
     */
    std::uint32_t add(unsigned chip, unsigned bank, std::uint32_t row,
                      std::uint32_t inc);

    /**
     * Overwrite a counter (clamped to kMax).  Normal operation only
     * ever adds or resets; this models corruption (fault injection).
     */
    void
    set(unsigned chip, unsigned bank, std::uint32_t row,
        std::uint32_t value)
    {
        data_.at(chip, bank, row) = value < kMax ? value : kMax;
    }

    /** Reset one counter (row refreshed / mitigated) on all chips. */
    void reset(unsigned bank, std::uint32_t row);

    /** Reset one counter on a single chip. */
    void resetChip(unsigned chip, unsigned bank, std::uint32_t row);

    /**
     * Reset counters for rows [row_begin, row_end) of @p bank on all
     * chips (periodic refresh sweep).
     */
    void resetRange(unsigned bank, std::uint32_t row_begin,
                    std::uint32_t row_end);

    /** Snapshot every counter value; a load throws on a geometry mismatch. */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

    /** Storage footprint in bytes (for reporting). */
    std::uint64_t storageBytes() const { return data_.bytes(); }

    /** Bytes of counter pages materialized so far. */
    std::uint64_t writtenBytes() const { return data_.writtenBytes(); }

  private:
    RowStore data_;
};

} // namespace mopac

#endif // MOPAC_DRAM_PRAC_HH
