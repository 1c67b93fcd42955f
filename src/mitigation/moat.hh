/**
 * @file
 * MOAT single-entry per-bank tracker (Qureshi & Qazi, 2024).
 *
 * MOAT keeps, per bank, the single row with the highest activation
 * count observed since the last mitigation.  When a row's counter
 * value at update time is at least the tracked count, that row
 * replaces the tracked entry.  An ALERT is requested when the tracked
 * count reaches the ALERT threshold (ATH); on the subsequent RFM the
 * tracked row is mitigated if its count is at least the eligibility
 * threshold (ETH = ATH/2, footnote 3 of the paper).
 */

#ifndef MOPAC_MITIGATION_MOAT_HH
#define MOPAC_MITIGATION_MOAT_HH

#include <cstdint>

#include "common/types.hh"

namespace mopac
{

/** One MOAT tracking entry (one per bank, or per chip x bank). */
class MoatEntry
{
  public:
    /** Is a row currently tracked? */
    bool valid() const { return row_ != kInvalid32; }

    std::uint32_t row() const { return row_; }
    std::uint32_t count() const { return count_; }

    /**
     * Observe a counter update: @p row now holds @p count.  Replaces
     * the tracked entry if the new count is at least as large.
     */
    void
    observe(std::uint32_t row, std::uint32_t count)
    {
        if (!valid() || count >= count_) {
            row_ = row;
            count_ = count;
        }
    }

    /** Drop the tracked entry (after mitigation or refresh). */
    void
    invalidate()
    {
        row_ = kInvalid32;
        count_ = 0;
    }

    /** Invalidate if the tracked row lies in [begin, end). */
    void
    invalidateIfInRange(std::uint32_t begin, std::uint32_t end)
    {
        if (valid() && row_ >= begin && row_ < end) {
            invalidate();
        }
    }

    /** Snapshot the tracked entry. */
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.u32(self.row_);
        ar.u32(self.count_);
    }

  private:
    std::uint32_t row_ = kInvalid32;
    std::uint32_t count_ = 0;
};

} // namespace mopac

#endif // MOPAC_MITIGATION_MOAT_HH
