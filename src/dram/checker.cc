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

void
SecurityChecker::saveState(Serializer &ser) const
{
    ser.putU32(counts_.banks());
    ser.putU32(counts_.rows());
    ser.putU32(counts_.chips());
    ser.putU32(trh_);
    counts_.saveState(ser);
    ser.putU32(max_unmitigated_);
    ser.putU64(violations_);

    ser.putU8(epoch_enabled_ ? 1 : 0);
    ser.putU64(epoch_len_);
    ser.putU32(epoch_hi1_);
    ser.putU32(epoch_hi2_);
    ser.putU64(epoch_start_);
    ser.putU64(epoch_counts_.size());
    for (const auto &per_bank : epoch_counts_) {
        // Sort keys so the byte stream is deterministic regardless of
        // unordered_map iteration order.
        std::vector<std::pair<std::uint32_t, std::uint32_t>> items(
            per_bank.begin(), per_bank.end());
        std::sort(items.begin(), items.end());
        ser.putU64(items.size());
        for (const auto &[row, count] : items) {
            ser.putU32(row);
            ser.putU32(count);
        }
    }
    ser.putU64(epochs_);
    ser.putU64(rows_act64_);
    ser.putU64(rows_act200_);
}

void
SecurityChecker::loadState(Deserializer &des)
{
    const std::uint32_t banks = des.getU32();
    const std::uint32_t rows = des.getU32();
    const std::uint32_t chips = des.getU32();
    const std::uint32_t trh = des.getU32();
    if (banks != counts_.banks() || rows != counts_.rows() ||
        chips != counts_.chips() || trh != trh_) {
        throw SerializeError("security checker shape mismatch");
    }
    counts_.loadState(des);
    max_unmitigated_ = des.getU32();
    violations_ = des.getU64();

    epoch_enabled_ = des.getU8() != 0;
    epoch_len_ = des.getU64();
    epoch_hi1_ = des.getU32();
    epoch_hi2_ = des.getU32();
    epoch_start_ = des.getU64();
    const std::uint64_t num_banks = des.getU64();
    if (epoch_enabled_ && num_banks != counts_.banks()) {
        throw SerializeError("epoch tracker bank count mismatch");
    }
    epoch_counts_.assign(num_banks, {});
    for (std::uint64_t b = 0; b < num_banks; ++b) {
        const std::uint64_t n = des.getU64();
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint32_t row = des.getU32();
            const std::uint32_t count = des.getU32();
            epoch_counts_[b][row] = count;
        }
    }
    epochs_ = des.getU64();
    rows_act64_ = des.getU64();
    rows_act200_ = des.getU64();
}

} // namespace mopac
