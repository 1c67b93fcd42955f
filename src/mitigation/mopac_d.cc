/**
 * @file
 * MopacDEngine implementation.
 */

#include "mopac_d.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/mathutil.hh"
#include "sim/faults.hh"

namespace mopac
{

MopacDEngine::MopacDEngine(DramBackend &backend, const Params &params)
    : backend_(backend), params_(params),
      banks_(backend.geometry().banks_per_subchannel),
      eth_star_(params.eth_star
                    ? params.eth_star
                    : std::max<std::uint32_t>(1, params.ath_star / 2)),
      prac_(banks_, backend.geometry().rows_per_bank, params.chips)
{
    MOPAC_ASSERT(params_.ath_star > 0);
    MOPAC_ASSERT(params_.srq_capacity > 0);
    MOPAC_ASSERT(params_.chips > 0);
    const unsigned window = 1u << params_.log2_inv_p;
    Rng master(params_.seed);
    state_.reserve(static_cast<std::size_t>(params_.chips) * banks_);
    for (unsigned chip = 0; chip < params_.chips; ++chip) {
        for (unsigned bank = 0; bank < banks_; ++bank) {
            state_.emplace_back(window, master.fork(), master.fork());
        }
    }
}

std::size_t
MopacDEngine::srqOccupancy(unsigned chip, unsigned bank) const
{
    return state_[static_cast<std::size_t>(chip) * banks_ + bank]
        .srq.size();
}

void
MopacDEngine::onActivate(unsigned bank, std::uint32_t row, Cycle)
{
    for (unsigned chip = 0; chip < params_.chips; ++chip) {
        ChipBank &cb = state(chip, bank);

        // Tardiness: count activations to queued rows.
        for (SrqEntry &entry : cb.srq) {
            if (entry.row == row) {
                ++entry.actr;
                if (entry.actr > params_.tth) {
                    ++stats_.tth_alerts;
                    ++stats_.alerts_requested;
                    backend_.requestAlert();
                }
                break;
            }
        }

        if (params_.sampler == SamplerKind::kPara) {
            // Ablation: independent per-ACT coin flips, immediate
            // insertion (footnote 6 explains why this is unsafe).
            if (cb.rng.chancePow2(params_.log2_inv_p)) {
                if (!params_.nup ||
                    prac_.get(chip, bank, row) != 0 ||
                    cb.rng.chancePow2(1)) {
                    insertSelection(chip, bank, row);
                }
            }
            continue;
        }

        // NUP (§8): rows whose counter is zero are sampled with p/2;
        // a fresh coin rejects half of their selections.  Acceptance
        // is evaluated before the step because the sampled position
        // may also close the window.
        const bool accept =
            !params_.nup || prac_.get(chip, bank, row) != 0 ||
            cb.rng.chancePow2(1);
        MintSampler::Result res = cb.sampler.step(row, accept);
        if (res.window_closed && res.emitted_row != kInvalid32) {
            insertSelection(chip, bank, res.emitted_row);
        }
    }
}

void
MopacDEngine::insertSelection(unsigned chip, unsigned bank,
                              std::uint32_t row)
{
    ChipBank &cb = state(chip, bank);
    // Coalesce repeat selections of a queued row into its SCtr.
    for (SrqEntry &entry : cb.srq) {
        if (entry.row == row) {
            ++entry.sctr;
            ++stats_.srq_coalesced;
            return;
        }
    }
    if (cb.srq.size() < params_.srq_capacity) {
        cb.srq.push_back({row, 0, 1});
        ++stats_.srq_insertions;
        if (cb.srq.size() == params_.srq_capacity) {
            ++stats_.srq_full_alerts;
            ++stats_.alerts_requested;
            backend_.requestAlert();
        }
        return;
    }
    // The SRQ is full and an ALERT is already outstanding; hold the
    // selection until the drain.  MINT guarantees at most one
    // selection per 1/p activations, so this stays tiny.
    cb.overflow.push_back(row);
    ++stats_.srq_insertions;
    backend_.requestAlert();
}

void
MopacDEngine::onPrechargeUpdate(unsigned, std::uint32_t, Cycle)
{
    panic("MoPAC-D received a PREcu: the MC must use normal precharges");
}

void
MopacDEngine::onPrecharge(unsigned bank, std::uint32_t row, Cycle,
                          Cycle open_cycles)
{
    if (!params_.rowpress) {
        return;
    }
    // Appendix A: the DRAM measures the row-open time tON and, if the
    // row is queued, raises its SCtr by ceil(tON / 180 ns) units of
    // damage; the first unit is the selection already recorded.
    constexpr Cycle kRowPressUnit = nsToCycles(180.0);
    const std::uint32_t units = static_cast<std::uint32_t>(
        ceilDiv(std::max<Cycle>(open_cycles, 1), kRowPressUnit));
    if (units <= 1) {
        return;
    }
    for (unsigned chip = 0; chip < params_.chips; ++chip) {
        ChipBank &cb = state(chip, bank);
        for (SrqEntry &entry : cb.srq) {
            if (entry.row == row) {
                entry.sctr += units - 1;
                break;
            }
        }
    }
}

void
MopacDEngine::applyUpdate(unsigned chip, unsigned bank,
                          const SrqEntry &entry)
{
    // §6.4: increment by 1 + SCtr/p -- the leading 1 accounts for the
    // activation performed by the counter read-modify-write itself;
    // each selection stands for 1/p activations.
    const std::uint32_t inc =
        1 + entry.sctr * (1u << params_.log2_inv_p);
    std::uint32_t value = prac_.add(chip, bank, entry.row, inc);
    if (FaultInjector *inj = backend_.faults(); inj != nullptr) {
        std::uint32_t corrupted = value;
        if (inj->corruptCounter(chip, corrupted, backend_.now())) {
            prac_.set(chip, bank, entry.row, corrupted);
            value = corrupted;
        }
    }
    ++stats_.counter_updates;
    ChipBank &cb = state(chip, bank);
    cb.moat.observe(entry.row, value);
    if (value >= params_.ath_star) {
        ++stats_.ath_alerts;
        ++stats_.alerts_requested;
        backend_.requestAlert();
    }
}

void
MopacDEngine::drain(unsigned chip, unsigned bank, unsigned max_entries,
                    bool during_ref)
{
    ChipBank &cb = state(chip, bank);
    for (unsigned n = 0; n < max_entries && !cb.srq.empty(); ++n) {
        // Highest ACtr first (the row closest to its tardiness bound).
        auto it = std::max_element(
            cb.srq.begin(), cb.srq.end(),
            [](const SrqEntry &a, const SrqEntry &b) {
                return a.actr < b.actr;
            });
        applyUpdate(chip, bank, *it);
        cb.srq.erase(it);
        ++stats_.srq_drains;
        if (during_ref) {
            ++stats_.ref_drains;
        }
    }
    // Admit any selections that arrived while the queue was full.
    while (!cb.overflow.empty() &&
           cb.srq.size() < params_.srq_capacity) {
        const std::uint32_t row = cb.overflow.back();
        cb.overflow.pop_back();
        cb.srq.push_back({row, 0, 1});
        if (cb.srq.size() == params_.srq_capacity) {
            ++stats_.srq_full_alerts;
            ++stats_.alerts_requested;
            backend_.requestAlert();
        }
    }
}

void
MopacDEngine::mitigate(unsigned chip, unsigned bank)
{
    ChipBank &cb = state(chip, bank);
    const std::uint32_t row = cb.moat.row();
    backend_.victimRefresh(bank, row, chip);
    prac_.resetChip(chip, bank, row);
    cb.moat.invalidate();
    ++stats_.mitigations;
}

void
MopacDEngine::onRefreshSweep(std::uint32_t row_begin,
                             std::uint32_t row_end)
{
    for (unsigned bank = 0; bank < banks_; ++bank) {
        prac_.resetRange(bank, row_begin, row_end);
        for (unsigned chip = 0; chip < params_.chips; ++chip) {
            state(chip, bank).moat.invalidateIfInRange(row_begin,
                                                       row_end);
        }
    }
}

void
MopacDEngine::onRefresh(Cycle)
{
    if (params_.drain_per_ref == 0) {
        return;
    }
    // Drain-on-REF (§6.2): a counter update needs one activation's
    // worth of the REF budget, far less than a full mitigation.
    for (unsigned chip = 0; chip < params_.chips; ++chip) {
        for (unsigned bank = 0; bank < banks_; ++bank) {
            drain(chip, bank, params_.drain_per_ref, true);
        }
    }
}

void
MopacDEngine::onRfm(Cycle now)
{
    // Truncated ABO drain: the RFM window is cut short -- one drained
    // entry per bank instead of drain_per_abo, and no time left for
    // mitigations.
    bool truncated = false;
    unsigned budget = params_.drain_per_abo;
    if (FaultInjector *inj = backend_.faults();
        inj != nullptr && inj->truncateAboService(now)) {
        truncated = true;
        budget = 1;
    }

    // §6.1 priority order per bank: a full SRQ (or a tardy entry)
    // drains first; otherwise a row at ATH* is mitigated; otherwise a
    // non-empty SRQ drains; otherwise an eligible tracked row is
    // mitigated.
    for (unsigned chip = 0; chip < params_.chips; ++chip) {
        for (unsigned bank = 0; bank < banks_; ++bank) {
            ChipBank &cb = state(chip, bank);
            const bool full = cb.srq.size() >= params_.srq_capacity ||
                              !cb.overflow.empty();
            const bool tardy = std::any_of(
                cb.srq.begin(), cb.srq.end(),
                [this](const SrqEntry &e) {
                    return e.actr > params_.tth;
                });
            if (full || tardy) {
                drain(chip, bank, budget, false);
            } else if (!truncated && cb.moat.valid() &&
                       cb.moat.count() >= params_.ath_star) {
                mitigate(chip, bank);
            } else if (!cb.srq.empty()) {
                drain(chip, bank, budget, false);
            } else if (!truncated && cb.moat.valid() &&
                       cb.moat.count() >= eth_star_) {
                mitigate(chip, bank);
            }
        }
    }
}

void
MopacDEngine::onNeighborRefresh(unsigned bank, std::uint32_t row,
                                unsigned chip)
{
    // The victim refresh activated this row once in the given chip.
    const unsigned begin = (chip == kAllChips) ? 0 : chip;
    const unsigned end = (chip == kAllChips) ? params_.chips : chip + 1;
    for (unsigned c = begin; c < end; ++c) {
        const std::uint32_t value = prac_.add(c, bank, row, 1);
        ChipBank &cb = state(c, bank);
        cb.moat.observe(row, value);
        if (value >= params_.ath_star) {
            ++stats_.ath_alerts;
            ++stats_.alerts_requested;
            backend_.requestAlert();
        }
    }
}

template <class Self, class Ar>
void
MopacDEngine::transfer(Self &self, Ar &ar)
{
    const Params &params = self.params_;
    std::uint32_t k = params.log2_inv_p;
    std::uint32_t chips = params.chips;
    std::uint32_t srq_cap = params.srq_capacity;
    std::uint32_t banks = self.banks_;
    std::uint32_t eth = self.eth_star_;
    ar.u32(k);
    ar.u32(chips);
    ar.u32(srq_cap);
    ar.u32(banks);
    ar.u32(eth);
    if (Ar::kLoading &&
        (k != params.log2_inv_p || chips != params.chips ||
         srq_cap != params.srq_capacity || banks != self.banks_ ||
         eth != self.eth_star_)) {
        throw SerializeError(format(
            "MoPAC-D parameter mismatch (saved k={} chips={} srq={} "
            "banks={} ETH*={}, live k={} chips={} srq={} banks={} "
            "ETH*={})", k, chips, srq_cap, banks, eth,
            params.log2_inv_p, params.chips, params.srq_capacity,
            self.banks_, self.eth_star_));
    }
    PracCounters::transfer(self.prac_, ar);
    matchU32(ar, static_cast<std::uint32_t>(self.state_.size()),
             "MoPAC-D chip-bank count");
    for (auto &cb : self.state_) {
        MintSampler::transfer(cb.sampler, ar);
        transferBounded(ar, cb.srq, params.srq_capacity, "SRQ",
                        [&](auto &e) {
                            ar.u32(e.row);
                            ar.u32(e.actr);
                            ar.u32(e.sctr);
                        });
        ar.vecU32(cb.overflow);
        MoatEntry::transfer(cb.moat, ar);
        Rng::transfer(cb.rng, ar);
    }
    EngineStats::transfer(self.stats_, ar);
}

MOPAC_TRANSFER_INSTANTIATE(MopacDEngine);

} // namespace mopac
