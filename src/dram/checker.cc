/**
 * @file
 * SecurityChecker implementation.
 */

#include "checker.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/serialize.hh"

namespace mopac
{

SecurityChecker::SecurityChecker(unsigned banks, std::uint32_t rows,
                                 unsigned chips, std::uint32_t trh)
    : trh_(trh), counts_(banks, rows, chips, RowStore::Layout::kChipMinor)
{
}

void
SecurityChecker::bumpChip(unsigned chip, unsigned bank, std::uint32_t row)
{
    std::uint32_t &c = counts_.at(chip, bank, row);
    ++c;
    max_unmitigated_ = std::max(max_unmitigated_, c);
    if (trh_ > 0 && c > trh_) {
        ++violations_;
    }
}

// mopac: hot-path
void
SecurityChecker::onActivate(unsigned bank, std::uint32_t row, Cycle now)
{
    // Chip-minor layout: the chip counts sit in one contiguous run
    // (typically a single cache line), so this is one memory touch
    // per ACT instead of one per chip.
    std::uint32_t *base = counts_.rowWords(bank, row);
    std::uint32_t hi = 0;
    const unsigned chips = counts_.chips();
    for (unsigned chip = 0; chip < chips; ++chip) {
        const std::uint32_t c = ++base[chip];
        hi = std::max(hi, c);
        if (trh_ > 0 && c > trh_) {
            ++violations_;
        }
    }
    max_unmitigated_ = std::max(max_unmitigated_, hi);
    if (epoch_enabled_) {
        if (now >= epoch_start_ + epoch_len_) {
            rollEpoch(now);
        }
        ++epoch_counts_[bank][row];
    }
}

void
SecurityChecker::onSweep(std::uint32_t row_begin, std::uint32_t row_end)
{
    for (unsigned bank = 0; bank < counts_.banks(); ++bank) {
        counts_.zeroRows(bank, row_begin, row_end);
    }
}

void
SecurityChecker::onVictimRefresh(unsigned chip, unsigned bank,
                                 std::uint32_t row, Cycle now)
{
    (void)now;
    const unsigned chip_begin = (chip == kAllChips) ? 0 : chip;
    const unsigned chip_end =
        (chip == kAllChips) ? counts_.chips() : chip + 1;
    const std::uint32_t rows = counts_.rows();
    for (unsigned c = chip_begin; c < chip_end; ++c) {
        // The aggressor's victims are now fresh: its exposure restarts.
        counts_.zero(c, bank, row);
        // Blast radius 2: rows r-2, r-1, r+1, r+2 are refreshed.  Per
        // the threat model, a refresh of a row is an intervening event
        // for that row, so its own count restarts too -- and the
        // refresh activates it once, which is its first new act.
        for (int d : {-2, -1, 1, 2}) {
            const std::int64_t v = static_cast<std::int64_t>(row) + d;
            if (v >= 0 && v < static_cast<std::int64_t>(rows)) {
                counts_.zero(c, bank, static_cast<std::uint32_t>(v));
                bumpChip(c, bank, static_cast<std::uint32_t>(v));
            }
        }
    }
}

std::uint32_t
SecurityChecker::count(unsigned chip, unsigned bank,
                       std::uint32_t row) const
{
    return counts_.get(chip, bank, row);
}

void
SecurityChecker::enableEpochTracking(Cycle epoch_cycles,
                                     std::uint32_t hi1,
                                     std::uint32_t hi2)
{
    MOPAC_ASSERT(epoch_cycles > 0 && hi1 > 0 && hi2 >= hi1);
    epoch_enabled_ = true;
    epoch_len_ = epoch_cycles;
    epoch_hi1_ = hi1;
    epoch_hi2_ = hi2;
    epoch_start_ = 0;
    epoch_counts_.assign(counts_.banks(), {});
}

void
SecurityChecker::rollEpoch(Cycle now)
{
    finalizeEpoch();
    // Skip forward over empty epochs so a burst after a long idle
    // period starts a fresh epoch aligned to epoch_len_.
    const Cycle elapsed = now - epoch_start_;
    epoch_start_ += (elapsed / epoch_len_) * epoch_len_;
}

void
SecurityChecker::finalizeEpoch()
{
    if (!epoch_enabled_) {
        return;
    }
    for (auto &bank_map : epoch_counts_) {
        for (const auto &[row, acts] : bank_map) {
            if (acts >= epoch_hi1_) {
                ++rows_act64_;
            }
            if (acts >= epoch_hi2_) {
                ++rows_act200_;
            }
        }
        bank_map.clear();
    }
    ++epochs_;
}

double
SecurityChecker::act64PerBankPerEpoch() const
{
    if (epochs_ == 0) {
        return 0.0;
    }
    return static_cast<double>(rows_act64_) /
           (static_cast<double>(counts_.banks()) *
            static_cast<double>(epochs_));
}

double
SecurityChecker::act200PerBankPerEpoch() const
{
    if (epochs_ == 0) {
        return 0.0;
    }
    return static_cast<double>(rows_act200_) /
           (static_cast<double>(counts_.banks()) *
            static_cast<double>(epochs_));
}


ProtocolChecker::ProtocolChecker(const TimingSet &normal,
                                 const TimingSet &cu, unsigned banks)
    : normal_(normal), cu_(cu), banks_(banks)
{
    MOPAC_ASSERT(banks > 0);
}

void
ProtocolChecker::report(DramCommand cmd, unsigned bank, Cycle now,
                        Cycle earliest, const char *rule)
{
    violations_.push_back({cmd, bank, now, earliest, rule});
}

std::uint64_t
ProtocolChecker::countRule(const std::string &rule) const
{
    std::uint64_t n = 0;
    for (const TimingViolation &v : violations_) {
        if (v.rule == rule) {
            ++n;
        }
    }
    return n;
}

void
ProtocolChecker::onCommand(DramCommand cmd, unsigned bank, Cycle now)
{
    MOPAC_ASSERT(bank < banks_.size());
    BankState &state = banks_[bank];
    ++commands_;

    switch (cmd) {
      case DramCommand::kAct: {
        if (state.open) {
            report(cmd, bank, now, now, "state:ACT-to-open-bank");
        }
        if (state.ever_activated &&
            now < state.last_act + normal_.tRC) {
            report(cmd, bank, now, state.last_act + normal_.tRC,
                   "tRC");
        }
        if (state.ever_precharged) {
            const Cycle trp =
                state.last_pre_was_cu ? cu_.tRP : normal_.tRP;
            if (now < state.last_pre + trp) {
                report(cmd, bank, now, state.last_pre + trp, "tRP");
            }
        }
        state.open = true;
        state.last_act = now;
        state.ever_activated = true;
        break;
      }
      case DramCommand::kRead:
      case DramCommand::kWrite: {
        if (!state.open) {
            report(cmd, bank, now, now, "state:CAS-to-closed-bank");
        } else if (now < state.last_act + normal_.tRCD) {
            report(cmd, bank, now, state.last_act + normal_.tRCD,
                   "tRCD");
        }
        if (cmd == DramCommand::kRead) {
            state.last_read = now;
            state.ever_read = true;
        } else {
            state.last_write_end = now + normal_.tCWL + normal_.tBL;
            state.ever_written = true;
        }
        break;
      }
      case DramCommand::kPre:
      case DramCommand::kPreCu: {
        // PRE to a closed bank is a legal no-op; only an open bank
        // has constraints to violate.
        if (state.open) {
            const bool is_cu = cmd == DramCommand::kPreCu;
            const Cycle tras = is_cu ? cu_.tRAS : normal_.tRAS;
            if (now < state.last_act + tras) {
                report(cmd, bank, now, state.last_act + tras, "tRAS");
            }
            if (state.ever_read &&
                now < state.last_read + normal_.tRTP) {
                report(cmd, bank, now,
                       state.last_read + normal_.tRTP, "tRTP");
            }
            if (state.ever_written &&
                now < state.last_write_end + normal_.tWR) {
                report(cmd, bank, now,
                       state.last_write_end + normal_.tWR, "tWR");
            }
            state.open = false;
            state.last_pre = now;
            state.last_pre_was_cu = is_cu;
            state.ever_precharged = true;
        }
        break;
      }
      case DramCommand::kRef:
      case DramCommand::kRfm:
        // Maintenance commands block the bank elsewhere; the
        // intra-bank rules above are unaffected.
        break;
    }
}

template <class Self, class Ar>
void
SecurityChecker::transfer(Self &self, Ar &ar)
{
    std::uint32_t banks = self.counts_.banks();
    std::uint32_t rows = self.counts_.rows();
    std::uint32_t chips = self.counts_.chips();
    std::uint32_t trh = self.trh_;
    ar.u32(banks);
    ar.u32(rows);
    ar.u32(chips);
    ar.u32(trh);
    if (Ar::kLoading &&
        (banks != self.counts_.banks() || rows != self.counts_.rows() ||
         chips != self.counts_.chips() || trh != self.trh_)) {
        throw SerializeError("security checker shape mismatch");
    }
    RowStore::transfer(self.counts_, ar);
    ar.u32(self.max_unmitigated_);
    ar.u64(self.violations_);

    ar.flag(self.epoch_enabled_);
    ar.u64(self.epoch_len_);
    ar.u32(self.epoch_hi1_);
    ar.u32(self.epoch_hi2_);
    ar.u64(self.epoch_start_);
    std::uint64_t num_banks = self.epoch_counts_.size();
    ar.u64(num_banks);
    if constexpr (Ar::kLoading) {
        if (self.epoch_enabled_ && num_banks != self.counts_.banks()) {
            throw SerializeError("epoch tracker bank count mismatch");
        }
        self.epoch_counts_.assign(num_banks, {});
    }
    for (auto &per_bank : self.epoch_counts_) {
        // Sort keys so the byte stream is deterministic regardless of
        // unordered_map iteration order.
        std::vector<std::pair<std::uint32_t, std::uint32_t>> items(
            per_bank.begin(), per_bank.end());
        std::sort(items.begin(), items.end());
        std::uint64_t n = items.size();
        ar.u64(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            auto [row, count] = Ar::kLoading
                                    ? std::pair<std::uint32_t,
                                                std::uint32_t>{}
                                    : items[i];
            ar.u32(row);
            ar.u32(count);
            if constexpr (Ar::kLoading) {
                per_bank[row] = count;
            }
        }
    }
    ar.u64(self.epochs_);
    ar.u64(self.rows_act64_);
    ar.u64(self.rows_act200_);
}

MOPAC_TRANSFER_INSTANTIATE(SecurityChecker);

} // namespace mopac
