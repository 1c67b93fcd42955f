/**
 * @file
 * ParaEngine, GrapheneTracker and QpracEngine implementations.
 */

#include "extra_engines.hh"

#include <algorithm>
#include <cmath>

#include "analysis/security.hh"
#include "common/log.hh"
#include "common/mathutil.hh"

namespace mopac
{

// ----------------------------------------------------------------- PARA

double
ParaEngine::deriveQ(std::uint32_t trh)
{
    // (1 - q)^T < eps  =>  q > 1 - eps^(1/T).
    const double eps = epsilonFor(trh);
    return 1.0 - std::exp(std::log(eps) / static_cast<double>(trh));
}

ParaEngine::ParaEngine(DramBackend &backend, const Params &params)
    : backend_(backend), params_(params), rng_(params.seed)
{
    MOPAC_ASSERT(params_.q > 0.0 && params_.q < 1.0);
}

void
ParaEngine::onActivate(unsigned bank, std::uint32_t row, Cycle)
{
    if (rng_.chance(params_.q)) {
        backend_.victimRefresh(bank, row, kAllChips);
        ++stats_.mitigations;
    }
}

// ------------------------------------------------------------- Graphene

unsigned
GrapheneTracker::deriveEntries(std::uint32_t mitigation_threshold)
{
    // Worst-case activations per bank per refresh window.
    const double window_acts = 32.0e6 / 46.0; // tREFW / tRC
    return static_cast<unsigned>(
        std::ceil(window_acts /
                  static_cast<double>(mitigation_threshold)));
}

GrapheneTracker::GrapheneTracker(DramBackend &backend,
                                 const Params &params)
    : backend_(backend), params_(params)
{
    MOPAC_ASSERT(params_.mitigation_threshold > 0);
    if (params_.entries == 0) {
        params_.entries = deriveEntries(params_.mitigation_threshold);
    }
    bank_state_.resize(backend.geometry().banks_per_subchannel);
    for (auto &bs : bank_state_) {
        bs.table.reserve(params_.entries);
    }
}

void
GrapheneTracker::onActivate(unsigned bank, std::uint32_t row, Cycle)
{
    BankState &bs = bank_state_[bank];
    for (Entry &entry : bs.table) {
        if (entry.row == row) {
            if (++entry.count >= params_.mitigation_threshold) {
                backend_.victimRefresh(bank, row, kAllChips);
                ++stats_.mitigations;
                entry.count = bs.spill; // rejoin the floor
            }
            return;
        }
    }
    if (bs.table.size() < params_.entries) {
        bs.table.push_back({row, bs.spill + 1});
        return;
    }
    // Misra-Gries: raise the floor; swap in the new row at the floor
    // if some entry has sunk to it (Graphene's spillover counter).
    ++bs.spill;
    for (Entry &entry : bs.table) {
        if (entry.count < bs.spill) {
            entry.row = row;
            entry.count = bs.spill;
            return;
        }
    }
}

void
GrapheneTracker::onRefreshSweep(std::uint32_t row_begin,
                                std::uint32_t row_end)
{
    // Reset the window when the sweep wraps (once per tREFW): rows
    // refreshed by the sweep can no longer be mid-window aggressors.
    // Only the wrap matters, not how far this REF reached.
    (void)row_end;
    if (row_begin != 0) {
        return;
    }
    for (auto &bs : bank_state_) {
        bs.table.clear();
        bs.spill = 0;
    }
}

// ---------------------------------------------------------------- QPRAC

QpracEngine::QpracEngine(DramBackend &backend, const Params &params)
    : backend_(backend), params_(params),
      eth_(params.eth ? params.eth
                      : std::max<std::uint32_t>(1, params.ath / 2)),
      prac_(backend.geometry().banks_per_subchannel,
            backend.geometry().rows_per_bank, /*chips=*/1)
{
    MOPAC_ASSERT(params_.ath > 0);
    MOPAC_ASSERT(params_.queue_entries > 0);
    bank_state_.resize(backend.geometry().banks_per_subchannel);
}

void
QpracEngine::observe(unsigned bank, std::uint32_t row,
                     std::uint32_t value)
{
    if (value >= params_.ath) {
        ++stats_.ath_alerts;
        ++stats_.alerts_requested;
        backend_.requestAlert();
    }
    if (value < eth_) {
        return;
    }
    BankState &bs = bank_state_[bank];
    for (Candidate &cand : bs.queue) {
        if (cand.row == row) {
            cand.count = value;
            return;
        }
    }
    if (bs.queue.size() < params_.queue_entries) {
        bs.queue.push_back({row, value});
        ++stats_.srq_insertions;
        return;
    }
    // Replace the coolest candidate if this row is hotter.
    auto it = std::min_element(
        bs.queue.begin(), bs.queue.end(),
        [](const Candidate &a, const Candidate &b) {
            return a.count < b.count;
        });
    if (value > it->count) {
        *it = {row, value};
        ++stats_.srq_insertions;
    }
}

void
QpracEngine::mitigateTop(unsigned bank)
{
    BankState &bs = bank_state_[bank];
    if (bs.queue.empty()) {
        return;
    }
    auto it = std::max_element(
        bs.queue.begin(), bs.queue.end(),
        [](const Candidate &a, const Candidate &b) {
            return a.count < b.count;
        });
    const std::uint32_t row = it->row;
    bs.queue.erase(it);
    backend_.victimRefresh(bank, row, kAllChips);
    prac_.reset(bank, row);
    ++stats_.mitigations;
}

void
QpracEngine::onPrechargeUpdate(unsigned bank, std::uint32_t row, Cycle)
{
    const std::uint32_t value = prac_.add(0, bank, row, 1);
    ++stats_.counter_updates;
    observe(bank, row, value);
}

void
QpracEngine::onRefreshSweep(std::uint32_t row_begin,
                            std::uint32_t row_end)
{
    for (unsigned bank = 0; bank < bank_state_.size(); ++bank) {
        prac_.resetRange(bank, row_begin, row_end);
        std::erase_if(bank_state_[bank].queue,
                      [&](const Candidate &cand) {
                          return cand.row >= row_begin &&
                                 cand.row < row_end;
                      });
    }
}

void
QpracEngine::onRefresh(Cycle)
{
    // Opportunistic service: clear the hottest candidates under the
    // refresh shadow so ABO is rarely needed (the QPRAC idea).
    for (unsigned bank = 0; bank < bank_state_.size(); ++bank) {
        for (unsigned n = 0; n < params_.mitigations_per_ref; ++n) {
            mitigateTop(bank);
        }
    }
}

void
QpracEngine::onRfm(Cycle)
{
    for (unsigned bank = 0; bank < bank_state_.size(); ++bank) {
        mitigateTop(bank);
    }
}

void
QpracEngine::onNeighborRefresh(unsigned bank, std::uint32_t row,
                               unsigned)
{
    const std::uint32_t value = prac_.add(0, bank, row, 1);
    observe(bank, row, value);
}

template <class Self, class Ar>
void
ParaEngine::transfer(Self &self, Ar &ar)
{
    double q = self.params_.q;
    ar.f64(q);
    if (Ar::kLoading && q != self.params_.q) {
        throw SerializeError(format(
            "PARA probability mismatch (saved {:.6f}, live {:.6f})", q,
            self.params_.q));
    }
    Rng::transfer(self.rng_, ar);
    EngineStats::transfer(self.stats_, ar);
}

MOPAC_TRANSFER_INSTANTIATE(ParaEngine);

template <class Self, class Ar>
void
GrapheneTracker::transfer(Self &self, Ar &ar)
{
    std::uint32_t threshold = self.params_.mitigation_threshold;
    auto banks = static_cast<std::uint32_t>(self.bank_state_.size());
    ar.u32(threshold);
    ar.u32(banks);
    if (Ar::kLoading && (threshold != self.params_.mitigation_threshold ||
                         banks != self.bank_state_.size())) {
        throw SerializeError(format(
            "Graphene shape mismatch (saved threshold={} banks={}, "
            "live threshold={} banks={})", threshold, banks,
            self.params_.mitigation_threshold, self.bank_state_.size()));
    }
    for (auto &bs : self.bank_state_) {
        transferBounded(ar, bs.table, self.params_.entries,
                        "Graphene table", [&](auto &e) {
                            ar.u32(e.row);
                            ar.u32(e.count);
                        });
        ar.u32(bs.spill);
    }
    EngineStats::transfer(self.stats_, ar);
}

MOPAC_TRANSFER_INSTANTIATE(GrapheneTracker);

template <class Self, class Ar>
void
QpracEngine::transfer(Self &self, Ar &ar)
{
    std::uint32_t ath = self.params_.ath;
    std::uint32_t eth = self.eth_;
    ar.u32(ath);
    ar.u32(eth);
    if (Ar::kLoading && (ath != self.params_.ath || eth != self.eth_)) {
        throw SerializeError(format(
            "QPRAC threshold mismatch (saved ATH={} ETH={}, live "
            "ATH={} ETH={})", ath, eth, self.params_.ath, self.eth_));
    }
    PracCounters::transfer(self.prac_, ar);
    matchU32(ar, static_cast<std::uint32_t>(self.bank_state_.size()),
             "QPRAC bank count");
    for (auto &bs : self.bank_state_) {
        transferBounded(ar, bs.queue, self.params_.queue_entries,
                        "QPRAC queue", [&](auto &c) {
                            ar.u32(c.row);
                            ar.u32(c.count);
                        });
    }
    EngineStats::transfer(self.stats_, ar);
}

MOPAC_TRANSFER_INSTANTIATE(QpracEngine);

} // namespace mopac
