/**
 * @file
 * CounterEngineBase implementation.
 */

#include "counter_engine.hh"

#include "common/log.hh"
#include "sim/faults.hh"

namespace mopac
{

CounterEngineBase::CounterEngineBase(DramBackend &backend,
                                     std::uint32_t ath, std::uint32_t eth)
    : backend_(backend),
      prac_(backend.geometry().banks_per_subchannel,
            backend.geometry().rows_per_bank, /*chips=*/1),
      moat_(backend.geometry().banks_per_subchannel),
      ath_(ath), eth_(eth)
{
    MOPAC_ASSERT(ath_ > 0 && eth_ > 0 && eth_ <= ath_);
}

void
CounterEngineBase::update(unsigned bank, std::uint32_t row,
                          std::uint32_t inc)
{
    std::uint32_t value = prac_.add(0, bank, row, inc);
    if (FaultInjector *inj = backend_.faults(); inj != nullptr) {
        // Counter corruption (bit-flip / saturate / reset) lands on
        // the read-modify-write, after the legitimate increment.
        std::uint32_t corrupted = value;
        if (inj->corruptCounter(/*chip=*/0, corrupted,
                                backend_.now())) {
            prac_.set(0, bank, row, corrupted);
            value = corrupted;
        }
    }
    ++stats_.counter_updates;
    moat_[bank].observe(row, value);
    if (value >= ath_) {
        ++stats_.ath_alerts;
        ++stats_.alerts_requested;
        backend_.requestAlert();
    }
}

void
CounterEngineBase::onPrechargeUpdate(unsigned bank, std::uint32_t row,
                                     Cycle)
{
    update(bank, row, updateIncrement());
}

void
CounterEngineBase::onRefreshSweep(std::uint32_t row_begin,
                                  std::uint32_t row_end)
{
    const unsigned banks = backend_.geometry().banks_per_subchannel;
    for (unsigned bank = 0; bank < banks; ++bank) {
        prac_.resetRange(bank, row_begin, row_end);
        moat_[bank].invalidateIfInRange(row_begin, row_end);
    }
}

void
CounterEngineBase::onRfm(Cycle now)
{
    if (FaultInjector *inj = backend_.faults();
        inj != nullptr && inj->truncateAboService(now)) {
        // Truncated ABO drain: the RFM clears the ALERT (the device
        // already did) but no mitigation work happens this round; the
        // tracked rows stay hot and re-alert later.
        return;
    }
    // All banks of the sub-channel mitigate their tracked row (if
    // eligible) during the RFM triggered by the ALERT.
    const unsigned banks = backend_.geometry().banks_per_subchannel;
    for (unsigned bank = 0; bank < banks; ++bank) {
        MoatEntry &entry = moat_[bank];
        if (entry.valid() && entry.count() >= eth_) {
            const std::uint32_t row = entry.row();
            backend_.victimRefresh(bank, row, kAllChips);
            prac_.reset(bank, row);
            entry.invalidate();
            ++stats_.mitigations;
        }
    }
}

void
CounterEngineBase::onNeighborRefresh(unsigned bank, std::uint32_t row,
                                     unsigned)
{
    // A victim refresh activates the row once; the counter records it
    // with an increment of 1 (footnote 5).
    update(bank, row, 1);
}

} // namespace mopac
