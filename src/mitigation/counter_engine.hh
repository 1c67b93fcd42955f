/**
 * @file
 * Shared base for PRAC-counter engines with a MOAT tracker
 * (deterministic PRAC+MOAT and MoPAC-C).
 *
 * Both designs update an in-DRAM per-row counter at (selected)
 * precharges, track the hottest row per bank with a single MOAT
 * entry, assert ALERT when a counter reaches the alert threshold, and
 * mitigate the tracked row during the resulting RFM if it is
 * eligible.  They differ only in which activations perform updates
 * and by how much each update increments the counter.
 */

#ifndef MOPAC_MITIGATION_COUNTER_ENGINE_HH
#define MOPAC_MITIGATION_COUNTER_ENGINE_HH

#include <vector>

#include "common/format.hh"
#include "dram/mitigator.hh"
#include "dram/prac.hh"
#include "mitigation/moat.hh"

namespace mopac
{

/** Base class implementing the PRAC + MOAT machinery. */
class CounterEngineBase : public Mitigator
{
  public:
    /**
     * @param backend DRAM services.
     * @param ath Alert threshold (ATH, or ATH* for MoPAC-C).
     * @param eth Eligibility threshold (typically ath / 2).
     */
    CounterEngineBase(DramBackend &backend, std::uint32_t ath,
                      std::uint32_t eth);

    void onActivate(unsigned, std::uint32_t, Cycle) override {}

    void onPrechargeUpdate(unsigned bank, std::uint32_t row,
                           Cycle now) override;

    void onRefreshSweep(std::uint32_t row_begin,
                        std::uint32_t row_end) override;

    void onRefresh(Cycle) override {}

    void onRfm(Cycle now) override;

    void onNeighborRefresh(unsigned bank, std::uint32_t row,
                           unsigned chip) override;

    const EngineStats &engineStats() const override { return stats_; }

    void saveState(Serializer &ser) const override { transfer(*this, ser); }
    void loadState(Deserializer &des) override { transfer(*this, des); }

    /**
     * Snapshot the PRAC array, MOAT entries, and statistics.  Derived
     * engines with extra state (MoPAC-C's RNG) extend this.
     */
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        std::uint32_t ath = self.ath_;
        std::uint32_t eth = self.eth_;
        ar.u32(ath);
        ar.u32(eth);
        if (Ar::kLoading && (ath != self.ath_ || eth != self.eth_)) {
            throw SerializeError(format(
                "counter engine threshold mismatch (saved ATH={} ETH={}, "
                "live ATH={} ETH={})", ath, eth, self.ath_, self.eth_));
        }
        PracCounters::transfer(self.prac_, ar);
        matchU32(ar, static_cast<std::uint32_t>(self.moat_.size()),
                 "MOAT entry count");
        for (auto &entry : self.moat_) {
            MoatEntry::transfer(entry, ar);
        }
        EngineStats::transfer(self.stats_, ar);
    }

    std::uint32_t ath() const { return ath_; }
    std::uint32_t eth() const { return eth_; }

    /** Current counter value for a row (tests / diagnostics). */
    std::uint32_t
    counter(unsigned bank, std::uint32_t row) const
    {
        return prac_.get(0, bank, row);
    }

  protected:
    /** Counter increment applied by one update. */
    virtual std::uint32_t updateIncrement() const = 0;

    /** Apply an increment, refresh MOAT, request ALERT at ATH. */
    void update(unsigned bank, std::uint32_t row, std::uint32_t inc);

    DramBackend &backend_;
    PracCounters prac_;
    std::vector<MoatEntry> moat_;
    std::uint32_t ath_;
    std::uint32_t eth_;
    EngineStats stats_;
};

} // namespace mopac

#endif // MOPAC_MITIGATION_COUNTER_ENGINE_HH
