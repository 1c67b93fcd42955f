/**
 * @file
 * Related-work tracker implementations.
 */

#include "related.hh"

#include <algorithm>

#include "common/log.hh"

namespace mopac
{

RefTimeTrackerBase::RefTimeTrackerBase(DramBackend &backend)
    : backend_(backend),
      banks_(backend.geometry().banks_per_subchannel)
{
}

void
RefTimeTrackerBase::mitigateRow(unsigned bank, std::uint32_t row)
{
    backend_.victimRefresh(bank, row, kAllChips);
    ++stats_.mitigations;
}

// ---------------------------------------------------------------- MINT

MintTracker::MintTracker(DramBackend &backend, const Params &params)
    : RefTimeTrackerBase(backend), params_(params)
{
    Rng master(params.seed);
    bank_state_.resize(banks_);
    for (auto &bs : bank_state_) {
        bs.rng = master.fork();
    }
}

void
MintTracker::onActivate(unsigned bank, std::uint32_t row, Cycle)
{
    BankState &bs = bank_state_[bank];
    ++bs.acts;
    // Reservoir sampling keeps the candidate uniform over however
    // many activations land in this REF interval.
    if (bs.rng.below(bs.acts) == 0) {
        bs.candidate = row;
    }
}

void
MintTracker::onRefresh(Cycle)
{
    for (unsigned bank = 0; bank < banks_; ++bank) {
        BankState &bs = bank_state_[bank];
        for (unsigned n = 0; n < params_.mitigations_per_ref; ++n) {
            if (bs.candidate == kInvalid32) {
                break;
            }
            mitigateRow(bank, bs.candidate);
            bs.candidate = kInvalid32;
        }
        bs.acts = 0;
    }
}

// --------------------------------------------------------------- PrIDE

PrideTracker::PrideTracker(DramBackend &backend, const Params &params)
    : RefTimeTrackerBase(backend), params_(params)
{
    MOPAC_ASSERT(params_.window > 0 && params_.fifo_capacity > 0);
    Rng master(params.seed);
    bank_state_.resize(banks_);
    for (auto &bs : bank_state_) {
        bs.rng = master.fork();
        bs.fifo.reserve(params_.fifo_capacity);
    }
}

void
PrideTracker::onActivate(unsigned bank, std::uint32_t row, Cycle)
{
    BankState &bs = bank_state_[bank];
    if (bs.rng.below(params_.window) == 0 &&
        bs.fifo.size() < params_.fifo_capacity) {
        bs.fifo.push_back(row);
    }
}

void
PrideTracker::onRefresh(Cycle)
{
    for (unsigned bank = 0; bank < banks_; ++bank) {
        BankState &bs = bank_state_[bank];
        for (unsigned n = 0; n < params_.mitigations_per_ref; ++n) {
            if (bs.fifo.empty()) {
                break;
            }
            mitigateRow(bank, bs.fifo.front());
            bs.fifo.erase(bs.fifo.begin());
        }
    }
}

// ----------------------------------------------------------------- TRR

TrrTracker::TrrTracker(DramBackend &backend, const Params &params)
    : RefTimeTrackerBase(backend), params_(params)
{
    MOPAC_ASSERT(params_.entries > 0 && params_.refs_per_mitigation > 0);
    bank_state_.resize(banks_);
    for (auto &bs : bank_state_) {
        bs.table.reserve(params_.entries);
    }
}

void
TrrTracker::onActivate(unsigned bank, std::uint32_t row, Cycle)
{
    BankState &bs = bank_state_[bank];
    for (Entry &entry : bs.table) {
        if (entry.row == row) {
            ++entry.count;
            return;
        }
    }
    if (bs.table.size() < params_.entries) {
        bs.table.push_back({row, 1});
        return;
    }
    // Misra-Gries decrement: many-sided patterns exploit exactly this
    // step to evict true aggressors (TRRespass / Blacksmith).
    for (Entry &entry : bs.table) {
        if (entry.count > 0) {
            --entry.count;
        }
    }
    std::erase_if(bs.table,
                  [](const Entry &e) { return e.count == 0; });
}

void
TrrTracker::onRefresh(Cycle)
{
    for (unsigned bank = 0; bank < banks_; ++bank) {
        BankState &bs = bank_state_[bank];
        if (++bs.refs_seen < params_.refs_per_mitigation) {
            continue;
        }
        bs.refs_seen = 0;
        if (bs.table.empty()) {
            continue;
        }
        auto it = std::max_element(
            bs.table.begin(), bs.table.end(),
            [](const Entry &a, const Entry &b) {
                return a.count < b.count;
            });
        mitigateRow(bank, it->row);
        bs.table.erase(it);
    }
}

template <class Self, class Ar>
void
MintTracker::transfer(Self &self, Ar &ar)
{
    std::uint32_t mit = self.params_.mitigations_per_ref;
    ar.u32(mit);
    if (Ar::kLoading && mit != self.params_.mitigations_per_ref) {
        throw SerializeError(format(
            "MINT tracker parameter mismatch (saved "
            "mitigations_per_ref={}, live {})", mit,
            self.params_.mitigations_per_ref));
    }
    matchU32(ar, static_cast<std::uint32_t>(self.bank_state_.size()),
             "MINT tracker bank count");
    for (auto &bs : self.bank_state_) {
        ar.u32(bs.candidate);
        ar.u32(bs.acts);
        Rng::transfer(bs.rng, ar);
    }
    EngineStats::transfer(self.stats_, ar);
}

MOPAC_TRANSFER_INSTANTIATE(MintTracker);

template <class Self, class Ar>
void
PrideTracker::transfer(Self &self, Ar &ar)
{
    matchU32(ar, static_cast<std::uint32_t>(self.bank_state_.size()),
             "PrIDE bank count");
    for (auto &bs : self.bank_state_) {
        ar.vecU32(bs.fifo);
        if (Ar::kLoading && bs.fifo.size() > self.params_.fifo_capacity) {
            throw SerializeError(format(
                "PrIDE FIFO occupancy {} exceeds capacity {}",
                bs.fifo.size(), self.params_.fifo_capacity));
        }
        Rng::transfer(bs.rng, ar);
    }
    EngineStats::transfer(self.stats_, ar);
}

MOPAC_TRANSFER_INSTANTIATE(PrideTracker);

template <class Self, class Ar>
void
TrrTracker::transfer(Self &self, Ar &ar)
{
    matchU32(ar, static_cast<std::uint32_t>(self.bank_state_.size()),
             "TRR bank count");
    for (auto &bs : self.bank_state_) {
        transferBounded(ar, bs.table, self.params_.entries, "TRR table",
                        [&](auto &e) {
                            ar.u32(e.row);
                            ar.u32(e.count);
                        });
        ar.u32(bs.refs_seen);
    }
    EngineStats::transfer(self.stats_, ar);
}

MOPAC_TRANSFER_INSTANTIATE(TrrTracker);

} // namespace mopac
