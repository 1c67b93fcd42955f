/**
 * @file
 * SubChannel implementation.
 */

#include "device.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/serialize.hh"
// Header-only hooks; no link dependency on mopac_sim (see faults.hh).
#include "sim/faults.hh"

namespace mopac
{

SubChannel::SubChannel(const Geometry &geo, const TimingSet *normal,
                       const TimingSet *cu, std::uint32_t trh)
    : geo_(geo), normal_(normal), cu_(cu),
      banks_(normal, cu, geo.banks_per_subchannel),
      checker_(geo.banks_per_subchannel, geo.rows_per_bank, geo.chips,
               trh)
{
    geo_.check();
    faw_window_.fill(0);
}

void
SubChannel::setMitigator(Mitigator *engine)
{
    MOPAC_ASSERT(engine != nullptr);
    engine_ = engine;
}

Cycle
SubChannel::actAllowedAt() const
{
    Cycle ready = 0;
    if (act_count_ > 0) {
        ready = last_act_ + normal_->tRRD;
    }
    // Four-activate window: the 4th-previous ACT bounds this one.
    if (act_count_ >= faw_window_.size()) {
        ready = std::max(ready, faw_window_[faw_idx_] + normal_->tFAW);
    }
    return ready;
}

Cycle
SubChannel::readBusAllowedAt() const
{
    if (bus_free_at_ <= normal_->tCL) {
        return 0;
    }
    return bus_free_at_ - normal_->tCL;
}

Cycle
SubChannel::writeBusAllowedAt() const
{
    if (bus_free_at_ <= normal_->tCWL) {
        return 0;
    }
    return bus_free_at_ - normal_->tCWL;
}

void
SubChannel::cmdAct(Cycle now, unsigned bank, std::uint32_t row)
{
    MOPAC_ASSERT(engine_ != nullptr);
    MOPAC_ASSERT(bank < banks_.size());
    MOPAC_ASSERT(row < geo_.rows_per_bank);
    if (now < actAllowedAt()) {
        panic("ACT at {} violates sub-channel constraint {}", now,
              actAllowedAt());
    }
    now_ = now;
    record(DramCommand::kAct, bank, row, now);
    banks_.act(bank, now, row);
    last_act_ = now;
    ++act_count_;
    faw_window_[faw_idx_] = now;
    faw_idx_ = (faw_idx_ + 1) % faw_window_.size();

    ++stats_.acts;
    ++acts_since_rfm_;
    checker_.onActivate(bank, row, now);
    engine_->onActivate(bank, row, now);

    if (alert_pending_ && !alert_asserted_) {
        alert_pending_ = false;
        alert_asserted_ = true;
        alert_since_ = now;
        ++stats_.alerts;
    }
}

Cycle
SubChannel::cmdRead(Cycle now, unsigned bank)
{
    now_ = now;
    const Cycle done = banks_.read(bank, now);
    MOPAC_ASSERT(now + normal_->tCL >= bus_free_at_);
    bus_free_at_ = done;
    ++stats_.reads;
    return done;
}

Cycle
SubChannel::cmdWrite(Cycle now, unsigned bank)
{
    now_ = now;
    const Cycle done = banks_.write(bank, now);
    MOPAC_ASSERT(now + normal_->tCWL >= bus_free_at_);
    bus_free_at_ = done;
    ++stats_.writes;
    return done;
}

void
SubChannel::cmdPre(Cycle now, unsigned bank, bool counter_update)
{
    MOPAC_ASSERT(engine_ != nullptr);
    now_ = now;
    const std::uint32_t row = banks_.openRow(bank);
    const Cycle open_cycles = now - banks_.openSince(bank);
    record(counter_update ? DramCommand::kPreCu : DramCommand::kPre,
           bank, row, now);
    if (faults_ != nullptr && faults_->stickBankOpen(bank, now)) {
        // The precharge silently fails: the row stays open and the
        // engine sees nothing.  The controller will retry (and stall)
        // until the stuck window passes.
        return;
    }
    banks_.pre(bank, now, counter_update);
    ++stats_.pres;
    if (counter_update) {
        ++stats_.precus;
        engine_->onPrechargeUpdate(bank, row, now);
    }
    engine_->onPrecharge(bank, row, now, open_cycles);
}

void
SubChannel::assertAllClosed(const char *what) const
{
    if (banks_.anyOpen()) {
        panic("{} issued with open row in sub-channel", what);
    }
}

void
SubChannel::cmdRef(Cycle now)
{
    MOPAC_ASSERT(engine_ != nullptr);
    now_ = now;
    record(DramCommand::kRef, 0, 0, now);
    assertAllClosed("REF");
    banks_.blockAllUntil(now + normal_->tRFC);
    ++stats_.refs;

    const std::uint32_t span = geo_.rowsPerRef();
    const std::uint32_t begin = sweep_row_;
    const std::uint32_t end =
        std::min(begin + span, geo_.rows_per_bank);
    checker_.onSweep(begin, end);
    engine_->onRefreshSweep(begin, end);
    sweep_row_ = (end >= geo_.rows_per_bank) ? 0 : end;

    engine_->onRefresh(now);
}

void
SubChannel::cmdRfm(Cycle now)
{
    MOPAC_ASSERT(engine_ != nullptr);
    now_ = now;
    record(DramCommand::kRfm, 0, 0, now);
    assertAllClosed("RFM");
    banks_.blockAllUntil(now + normal_->tRFM);
    ++stats_.rfms;

    engine_->onRfm(now);

    alert_asserted_ = false;
    acts_since_rfm_ = 0;
}

void
SubChannel::requestAlert()
{
    if (alert_asserted_) {
        return;
    }
    if (faults_ != nullptr && faults_->dropAlert(now_)) {
        return;
    }
    // The ABO specification requires a non-zero number of activations
    // between two ALERTs; latch the request until the next ACT if
    // none has occurred since the last RFM.
    if (acts_since_rfm_ == 0) {
        alert_pending_ = true;
        return;
    }
    alert_asserted_ = true;
    // A delayed ALERT reaches the controller late: alertSince() (which
    // anchors the tABO window) moves into the future.
    alert_since_ =
        now_ + (faults_ != nullptr ? faults_->alertAssertDelay(now_)
                                   : 0);
    ++stats_.alerts;
}

void
SubChannel::victimRefresh(unsigned bank, std::uint32_t row, unsigned chip)
{
    MOPAC_ASSERT(bank < banks_.size());
    if (faults_ != nullptr &&
        faults_->suppressVictimRefresh(chip, now_)) {
        // Weak-sampler chip: the mitigation silently does not happen.
        // The engine has already reset its own counters believing it
        // did, but the ground-truth checker keeps counting -- the
        // injector cannot fool the oracle.
        return;
    }
    checker_.onVictimRefresh(chip, bank, row, now_);
    ++stats_.victim_refreshes;
    // Each refreshed victim row is activated once; the engine's
    // per-row counters must observe that activation (footnote 5).
    for (int d : {-2, -1, 1, 2}) {
        const std::int64_t v = static_cast<std::int64_t>(row) + d;
        if (v >= 0 && v < static_cast<std::int64_t>(geo_.rows_per_bank)) {
            engine_->onNeighborRefresh(bank,
                                       static_cast<std::uint32_t>(v),
                                       chip);
        }
    }
}

std::vector<CommandRecord>
SubChannel::commandTail(unsigned k) const
{
    const std::uint64_t have =
        std::min<std::uint64_t>(cmd_ring_count_, kCmdRingCapacity);
    const std::uint64_t take = std::min<std::uint64_t>(k, have);
    std::vector<CommandRecord> out;
    out.reserve(take);
    for (std::uint64_t i = cmd_ring_count_ - take;
         i < cmd_ring_count_; ++i) {
        out.push_back(cmd_ring_[i % kCmdRingCapacity]);
    }
    return out;
}

template <class Self, class Ar>
void
SubChannel::transfer(Self &self, Ar &ar)
{
    // BankArray writes the same bytes the per-bank objects used to
    // (leading count, then each bank's seven fields).
    BankArray::transfer(self.banks_, ar);
    SecurityChecker::transfer(self.checker_, ar);

    ar.u64(self.last_act_);
    ar.u64(self.act_count_);
    for (auto &c : self.faw_window_) {
        ar.u64(c);
    }
    ar.u32(self.faw_idx_);
    ar.u64(self.bus_free_at_);

    ar.flag(self.alert_asserted_);
    ar.flag(self.alert_pending_);
    ar.u64(self.alert_since_);
    ar.u64(self.acts_since_rfm_);
    ar.u32(self.sweep_row_);
    ar.u64(self.now_);

    for (auto &rec : self.cmd_ring_) {
        ar.u8(rec.cmd);
        ar.u32(rec.bank);
        ar.u32(rec.row);
        ar.u64(rec.at);
    }
    ar.u64(self.cmd_ring_count_);

    auto &stats = self.stats_;
    ar.u64(stats.acts);
    ar.u64(stats.pres);
    ar.u64(stats.precus);
    ar.u64(stats.reads);
    ar.u64(stats.writes);
    ar.u64(stats.refs);
    ar.u64(stats.rfms);
    ar.u64(stats.alerts);
    ar.u64(stats.victim_refreshes);
}

MOPAC_TRANSFER_INSTANTIATE(SubChannel);

} // namespace mopac
