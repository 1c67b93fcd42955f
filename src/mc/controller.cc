/**
 * @file
 * Controller implementation.
 *
 * Scheduling hot loops (ISSUE 9): each pass walks per-bank candidate
 * sets via bitmask iteration over the RequestQueue's incremental
 * indexes.  Selection is provably identical to the old full-queue
 * scans:
 *
 *  - CAS: all hits in one bank share one ready time, so the oldest
 *    hit per open bank is the only candidate the naive scan could
 *    issue or consider() for that bank; issuing the minimum-seq ready
 *    candidate and considering the not-ready candidates that are
 *    older than it reproduces the scan's issue choice *and* its
 *    next_wake_ contributions exactly.
 *  - ACT: the naive scan looks at the first request per closed bank
 *    in arrival order (`seen` skips the rest), which is precisely the
 *    bank list head; queue priority and the cross-queue `seen` set
 *    survive as bitmask operations.
 *
 * tests/mc/test_scheduler_policy.cc's reference model replays both
 * scans side by side under randomized traffic to hold this to account.
 */

#include "controller.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "common/log.hh"
#include "common/serialize.hh"
#include "sim/faults.hh"
#include "sim/profile.hh"

namespace mopac
{

Controller::Controller(SubChannel &device, const AddressMap &map,
                       const ControllerParams &params, MemClient *client)
    : device_(device), map_(map), params_(params), client_(client),
      next_ref_at_(device.normalTiming().tREFI)
{
    const unsigned nbanks = device_.numBanks();
    cu_pending_.assign(nbanks, 0);
    act_claimed_.assign(nbanks, 0);
    read_q_.init(params_.read_queue_cap, nbanks);
    write_q_.init(params_.write_queue_cap, nbanks);
    if (params_.wq_drain_high > params_.write_queue_cap ||
        params_.wq_drain_low >= params_.wq_drain_high) {
        fatal("controller: bad write-drain watermarks");
    }
}

bool
Controller::enqueue(Request req, Cycle now)
{
    const DramCoord coord = map_.decode(req.line_addr);
    req.bank = coord.bank;
    req.row = coord.row;
    req.column = coord.column;
    req.enqueue_cycle = now;
    if (req.is_write) {
        if (!canAcceptWrite()) {
            return false;
        }
        ++stats_.writes_enqueued;
        write_q_.push(req);
    } else {
        if (!canAcceptRead()) {
            return false;
        }
        ++stats_.reads_enqueued;
        read_q_.push(req);
    }
    next_wake_ = 0;
    return true;
}

void
Controller::consider(Cycle ready)
{
    next_wake_ = std::min(next_wake_, ready);
}

bool
Controller::allBanksClosed() const
{
    return !device_.banks().anyOpen();
}

// mopac: hot-path
bool
Controller::drainOnePre(Cycle now)
{
    // Ascending-bank walk over exactly the open banks.
    const BankArray &banks = device_.banks();
    for (std::uint64_t m = banks.openMask(); m != 0; m &= m - 1) {
        const unsigned bank =
            static_cast<unsigned>(std::countr_zero(m));
        const bool cu = cu_pending_[bank] != 0;
        const Cycle ready = banks.preReadyAt(bank, cu);
        if (now >= ready) {
            device_.cmdPre(now, bank, cu);
            cu_pending_[bank] = 0;
            return true;
        }
        consider(ready);
    }
    return false;
}

// mopac: hot-path
void
Controller::tick(Cycle now)
{
    if (now < next_wake_) {
        return;
    }
    next_wake_ = kNeverCycle;
    ++simProfile().mc_ticks;

    // Busy executing REF / RFM.
    if (state_ == MaintState::kRfmBusy || state_ == MaintState::kRefBusy) {
        if (now < busy_until_) {
            consider(busy_until_);
            return;
        }
        state_ = MaintState::kNormal;
    }

    // ALERT detection (preempts a refresh drain in progress).
    if (device_.alertAsserted() &&
        (state_ == MaintState::kNormal ||
         state_ == MaintState::kRefDrain)) {
        state_ = MaintState::kAlertWindow;
        stall_at_ =
            device_.alertSince() + device_.normalTiming().tABO;
        // RFM starvation: a faulty MC keeps serving demand traffic
        // past the tABO deadline before honoring the drain.  One
        // query per ALERT episode.
        if (FaultInjector *inj = device_.faults(); inj != nullptr) {
            stall_at_ += inj->rfmStarveDelay(now);
        }
    }
    if (state_ == MaintState::kAlertWindow && now >= stall_at_) {
        state_ = MaintState::kAlertDrain;
    }

    if (state_ == MaintState::kAlertDrain) {
        if (allBanksClosed()) {
            const Cycle trfm = device_.normalTiming().tRFM;
            device_.cmdRfm(now);
            ++stats_.rfms_issued;
            stats_.alert_stall_cycles += (now + trfm) - stall_at_;
            busy_until_ = now + trfm;
            state_ = MaintState::kRfmBusy;
            consider(busy_until_);
            return;
        }
        if (drainOnePre(now)) {
            consider(now + 1);
        }
        return;
    }

    // Refresh scheduling.
    if (state_ == MaintState::kNormal && now >= next_ref_at_) {
        state_ = MaintState::kRefDrain;
    }
    if (state_ == MaintState::kRefDrain) {
        if (allBanksClosed()) {
            device_.cmdRef(now);
            ++stats_.refs_issued;
            busy_until_ = now + device_.normalTiming().tRFC;
            next_ref_at_ += device_.normalTiming().tREFI;
            state_ = MaintState::kRefBusy;
            consider(busy_until_);
            return;
        }
        if (drainOnePre(now)) {
            consider(now + 1);
        }
        return;
    }

    // Normal operation (also inside the 180 ns ALERT window).
    consider(next_ref_at_);
    if (state_ == MaintState::kAlertWindow) {
        consider(stall_at_);
    }
    scheduleOne(now);
}

// mopac: hot-path
void
Controller::issueCas(RequestQueue &queue, std::int32_t slot,
                     bool is_write, Cycle now)
{
    const Request req = queue.at(slot);
    queue.erase(slot);

    if (act_claimed_[req.bank]) {
        // First CAS after the ACT this controller issued for the
        // opening request: counts as the row miss.
        act_claimed_[req.bank] = 0;
    } else {
        ++stats_.row_hits;
    }

    if (is_write) {
        device_.cmdWrite(now, req.bank);
        ++stats_.cas_writes;
    } else {
        const Cycle done = device_.cmdRead(now, req.bank);
        ++stats_.cas_reads;
        stats_.read_latency.add(done - req.enqueue_cycle);
        if (client_ != nullptr) {
            client_->memComplete(req, done);
        }
    }
}

// mopac: hot-path
void
Controller::issueAct(unsigned bank, std::uint32_t row, Cycle now)
{
    device_.cmdAct(now, bank, row);
    cu_pending_[bank] =
        device_.mitigator()->selectForUpdate(bank, row, now) ? 1 : 0;
    act_claimed_[bank] = 1;
    // The open row changed.  A closed bank's summaries are never read
    // and every bank reopens through here, so marking the ACT alone
    // covers the PRE as well.
    read_q_.markStale(bank);
    write_q_.markStale(bank);
}

// mopac: hot-path
bool
Controller::tryCas(RequestQueue &queue, bool is_write, Cycle now)
{
    const Cycle bus_ready = is_write ? device_.writeBusAllowedAt()
                                     : device_.readBusAllowedAt();
    const BankArray &banks = device_.banks();
    SimProfile &prof = simProfile();

    // Candidate per open bank: its oldest row hit (all hits in a bank
    // share one ready time, so no younger hit can act differently).
    // mark() already found it while building the hit/conflict masks,
    // and hit_q_mask_ narrows the walk to exactly the banks holding a
    // hit.
    const unsigned qi = is_write ? 1U : 0U;
    const std::array<std::int32_t, 64> &hit_head =
        is_write ? hit_head_write_ : hit_head_read_;
    std::int32_t best_slot = RequestQueue::kNil;
    std::uint64_t best_seq = 0;
    std::array<std::uint64_t, 64> wait_seq;
    std::array<Cycle, 64> wait_ready;
    unsigned waits = 0;
    for (std::uint64_t m =
             hit_q_mask_[qi] & banks.openMask() & queue.bankMask();
         m != 0; m &= m - 1) {
        const unsigned bank =
            static_cast<unsigned>(std::countr_zero(m));
        const std::int32_t s = hit_head[bank];
        ++prof.mc_cas_candidates;
        const Cycle ready =
            std::max(is_write ? banks.writeReadyAt(bank)
                              : banks.readReadyAt(bank),
                     bus_ready);
        if (now >= ready) {
            if (best_slot == RequestQueue::kNil ||
                queue.seq(s) < best_seq) {
                best_slot = s;
                best_seq = queue.seq(s);
            }
        } else {
            wait_seq[waits] = queue.seq(s);
            wait_ready[waits] = ready;
            ++waits;
        }
    }
    if (best_slot != RequestQueue::kNil) {
        // The naive scan stops at the issued request, so only older
        // not-ready candidates contribute to next_wake_.
        for (unsigned i = 0; i < waits; ++i) {
            if (wait_seq[i] < best_seq) {
                consider(wait_ready[i]);
            }
        }
        issueCas(queue, best_slot, is_write, now);
        return true;
    }
    for (unsigned i = 0; i < waits; ++i) {
        consider(wait_ready[i]);
    }
    return false;
}

// mopac: hot-path
bool
Controller::tryActs(Cycle now, bool serve_writes)
{
    const Cycle subch_ready = device_.actAllowedAt();
    const BankArray &banks = device_.banks();
    SimProfile &prof = simProfile();
    const std::uint64_t open = banks.openMask();

    // Candidate per closed bank: its oldest request (= bank list
    // head), exactly what the naive scan's `seen` filter kept.
    std::uint64_t seen = 0;
    auto scan = [&](const RequestQueue &queue) -> bool {
        std::int32_t best_slot = RequestQueue::kNil;
        std::uint64_t best_seq = 0;
        std::array<std::uint64_t, 64> wait_seq;
        std::array<Cycle, 64> wait_ready;
        unsigned waits = 0;
        for (std::uint64_t m = queue.bankMask() & ~open & ~seen;
             m != 0; m &= m - 1) {
            const unsigned bank =
                static_cast<unsigned>(std::countr_zero(m));
            const std::int32_t s = queue.bankHead(bank);
            ++prof.mc_act_candidates;
            const Cycle ready =
                std::max(banks.actReadyAt(bank), subch_ready);
            if (now >= ready) {
                if (best_slot == RequestQueue::kNil ||
                    queue.seq(s) < best_seq) {
                    best_slot = s;
                    best_seq = queue.seq(s);
                }
            } else {
                wait_seq[waits] = queue.seq(s);
                wait_ready[waits] = ready;
                ++waits;
            }
        }
        seen |= queue.bankMask() & ~open;
        if (best_slot != RequestQueue::kNil) {
            for (unsigned i = 0; i < waits; ++i) {
                if (wait_seq[i] < best_seq) {
                    consider(wait_ready[i]);
                }
            }
            const Request &req = queue.at(best_slot);
            issueAct(req.bank, req.row, now);
            return true;
        }
        for (unsigned i = 0; i < waits; ++i) {
            consider(wait_ready[i]);
        }
        return false;
    };

    if (serve_writes && drain_mode_) {
        if (scan(write_q_)) {
            return true;
        }
        return scan(read_q_);
    }
    if (scan(read_q_)) {
        return true;
    }
    if (serve_writes) {
        return scan(write_q_);
    }
    return false;
}

// mopac: hot-path
bool
Controller::tryPres(Cycle now)
{
    const BankArray &banks = device_.banks();
    // Open-page policy closes a row only under a conflict, so the
    // walk can pre-filter to conflict banks; the other policies must
    // visit every open non-hit bank (kClose always wants the PRE,
    // kTimeout owes a consider() even when the timer has not fired).
    std::uint64_t walk = banks.openMask() & ~hit_mask_;
    if (params_.page_policy == PagePolicy::kOpen) {
        walk &= conflict_mask_;
    }
    for (std::uint64_t m = walk; m != 0; m &= m - 1) {
        const unsigned bank =
            static_cast<unsigned>(std::countr_zero(m));
        bool want = (conflict_mask_ >> bank) & 1;
        if (!want) {
            switch (params_.page_policy) {
              case PagePolicy::kOpen:
                break;
              case PagePolicy::kClose:
                // Predictive closure (DRAMsim3-style close page):
                // precharge as soon as no queued request hits the row.
                want = true;
                break;
              case PagePolicy::kTimeout:
                if (now >= banks.lastCas(bank) + params_.timeout_ton) {
                    want = true;
                } else {
                    consider(banks.lastCas(bank) +
                             params_.timeout_ton);
                }
                break;
            }
        }
        if (!want) {
            continue;
        }
        const bool cu = cu_pending_[bank] != 0;
        const Cycle ready = banks.preReadyAt(bank, cu);
        if (now >= ready) {
            device_.cmdPre(now, bank, cu);
            cu_pending_[bank] = 0;
            return true;
        }
        consider(ready);
    }
    return false;
}

// mopac: hot-path
void
Controller::scheduleOne(Cycle now)
{
    if (params_.naive_scan) {
        scheduleOneNaive(now);
        return;
    }
    SimProfile &prof = simProfile();
    ++prof.mc_sched_passes;
    prof.mc_queue_cycles += read_q_.size() + write_q_.size();

    // Write-drain hysteresis.
    if (write_q_.size() >= params_.wq_drain_high) {
        drain_mode_ = true;
    } else if (write_q_.size() <= params_.wq_drain_low) {
        drain_mode_ = false;
    }
    const bool serve_writes = drain_mode_ || read_q_.empty();

    // Per-bank pending-hit / pending-conflict summary over exactly
    // the open banks that hold requests (set union, order-free).
    // The per-(queue, bank) results are *cached* across passes: the
    // queue's stale mask flags every bank whose list changed (push,
    // erase) or that was reopened (issueAct) since its last walk, so
    // steady-state passes re-walk only the one or two banks a command
    // touched and never look at the others.  The walk also finds
    // each bank's oldest row hit (bank lists are arrival-ordered, so
    // the first hit is the oldest) and caches it for tryCas(), which
    // then needs no list walk of its own.
    const BankArray &banks = device_.banks();
    auto mark = [&](RequestQueue &queue, unsigned qi,
                    std::array<std::int32_t, 64> &hit_head) {
        const std::uint64_t walk =
            banks.openMask() & queue.bankMask() & queue.staleMask();
        for (std::uint64_t m = walk; m != 0; m &= m - 1) {
            const unsigned bank =
                static_cast<unsigned>(std::countr_zero(m));
            ++prof.mc_mark_walks;
            const std::uint32_t open = banks.openRow(bank);
            const std::uint64_t bit = std::uint64_t{1} << bank;
            std::int32_t first_hit = RequestQueue::kNil;
            bool conflict = false;
            for (std::int32_t s = queue.bankHead(bank);
                 s != RequestQueue::kNil &&
                 !(first_hit != RequestQueue::kNil && conflict);
                 s = queue.bankNext(s)) {
                ++prof.mc_mark_steps;
                if (queue.at(s).row == open) {
                    if (first_hit == RequestQueue::kNil) {
                        first_hit = s;
                    }
                } else {
                    conflict = true;
                }
            }
            hit_head[bank] = first_hit;
            hit_q_mask_[qi] =
                (hit_q_mask_[qi] & ~bit) |
                (first_hit != RequestQueue::kNil ? bit : 0);
            conflict_q_mask_[qi] =
                (conflict_q_mask_[qi] & ~bit) | (conflict ? bit : 0);
        }
        queue.clearStale(walk);
    };
    mark(read_q_, 0, hit_head_read_);
    const std::uint64_t open_mask = banks.openMask();
    hit_mask_ = hit_q_mask_[0] & open_mask & read_q_.bankMask();
    conflict_mask_ =
        conflict_q_mask_[0] & open_mask & read_q_.bankMask();
    if (serve_writes) {
        mark(write_q_, 1, hit_head_write_);
        hit_mask_ |= hit_q_mask_[1] & open_mask & write_q_.bankMask();
        conflict_mask_ |=
            conflict_q_mask_[1] & open_mask & write_q_.bankMask();
    }

    bool issued = false;
    if (drain_mode_) {
        issued = tryCas(write_q_, true, now) ||
                 tryCas(read_q_, false, now);
    } else {
        issued = tryCas(read_q_, false, now);
        if (!issued && serve_writes) {
            issued = tryCas(write_q_, true, now);
        }
    }
    if (!issued) {
        issued = tryActs(now, serve_writes);
    }
    if (!issued) {
        issued = tryPres(now);
    }
    if (issued) {
        consider(now + 1);
    }
}

// Reference scheduler: the full-queue scans the indexed walks
// replaced, expressed over the RequestQueue's global arrival list
// (identical iteration order to the old flat vectors).  Not a hot
// path -- its one reason to exist is the scheduler property test
// (tests/mc/test_scheduler_policy.cc), which replays randomized
// traffic through both schedulers and requires identical commands,
// stats and snapshots.

bool
Controller::tryCasNaive(RequestQueue &queue, bool is_write, Cycle now)
{
    const Cycle bus_ready = is_write ? device_.writeBusAllowedAt()
                                     : device_.readBusAllowedAt();
    const BankArray &banks = device_.banks();
    for (std::int32_t s = queue.head(); s != RequestQueue::kNil;
         s = queue.next(s)) {
        const Request &req = queue.at(s);
        // One compare: a closed bank reports kInvalid32, never a row.
        if (banks.openRow(req.bank) != req.row) {
            continue;
        }
        const Cycle ready =
            std::max(is_write ? banks.writeReadyAt(req.bank)
                              : banks.readReadyAt(req.bank),
                     bus_ready);
        if (now >= ready) {
            issueCas(queue, s, is_write, now);
            return true;
        }
        consider(ready);
    }
    return false;
}

bool
Controller::tryActsNaive(Cycle now, bool serve_writes)
{
    const Cycle subch_ready = device_.actAllowedAt();
    const BankArray &banks = device_.banks();
    // Only the oldest request per closed bank is an ACT candidate;
    // `seen` carries across the two queue scans.
    std::uint64_t seen = 0;
    auto scan = [&](const RequestQueue &queue) -> bool {
        for (std::int32_t s = queue.head(); s != RequestQueue::kNil;
             s = queue.next(s)) {
            const Request &req = queue.at(s);
            const std::uint64_t bit = std::uint64_t{1} << req.bank;
            if (banks.hasOpenRow(req.bank) || (seen & bit) != 0) {
                continue;
            }
            seen |= bit;
            const Cycle ready =
                std::max(banks.actReadyAt(req.bank), subch_ready);
            if (now >= ready) {
                issueAct(req.bank, req.row, now);
                return true;
            }
            consider(ready);
        }
        return false;
    };

    if (serve_writes && drain_mode_) {
        if (scan(write_q_)) {
            return true;
        }
        return scan(read_q_);
    }
    if (scan(read_q_)) {
        return true;
    }
    if (serve_writes) {
        return scan(write_q_);
    }
    return false;
}

bool
Controller::tryPresNaive(Cycle now)
{
    const BankArray &banks = device_.banks();
    // The old walk visits every open non-hit bank (no policy
    // pre-filter).
    for (std::uint64_t m = banks.openMask() & ~hit_mask_; m != 0;
         m &= m - 1) {
        const unsigned bank =
            static_cast<unsigned>(std::countr_zero(m));
        bool want = (conflict_mask_ >> bank) & 1;
        if (!want) {
            switch (params_.page_policy) {
              case PagePolicy::kOpen:
                break;
              case PagePolicy::kClose:
                want = true;
                break;
              case PagePolicy::kTimeout:
                if (now >= banks.lastCas(bank) + params_.timeout_ton) {
                    want = true;
                } else {
                    consider(banks.lastCas(bank) +
                             params_.timeout_ton);
                }
                break;
            }
        }
        if (!want) {
            continue;
        }
        const bool cu = cu_pending_[bank] != 0;
        const Cycle ready = banks.preReadyAt(bank, cu);
        if (now >= ready) {
            device_.cmdPre(now, bank, cu);
            cu_pending_[bank] = 0;
            return true;
        }
        consider(ready);
    }
    return false;
}

void
Controller::scheduleOneNaive(Cycle now)
{
    // Write-drain hysteresis.
    if (write_q_.size() >= params_.wq_drain_high) {
        drain_mode_ = true;
    } else if (write_q_.size() <= params_.wq_drain_low) {
        drain_mode_ = false;
    }
    const bool serve_writes = drain_mode_ || read_q_.empty();

    // Per-bank pending-hit / pending-conflict summary, recomputed
    // from scratch by walking the whole queue(s).
    hit_mask_ = 0;
    conflict_mask_ = 0;
    const BankArray &banks = device_.banks();
    auto mark = [&](const RequestQueue &queue) {
        for (std::int32_t s = queue.head(); s != RequestQueue::kNil;
             s = queue.next(s)) {
            const Request &req = queue.at(s);
            const std::uint32_t open = banks.openRow(req.bank);
            if (open == kInvalid32) {
                continue;
            }
            if (open == req.row) {
                hit_mask_ |= std::uint64_t{1} << req.bank;
            } else {
                conflict_mask_ |= std::uint64_t{1} << req.bank;
            }
        }
    };
    mark(read_q_);
    if (serve_writes) {
        mark(write_q_);
    }

    bool issued = false;
    if (drain_mode_) {
        issued = tryCasNaive(write_q_, true, now) ||
                 tryCasNaive(read_q_, false, now);
    } else {
        issued = tryCasNaive(read_q_, false, now);
        if (!issued && serve_writes) {
            issued = tryCasNaive(write_q_, true, now);
        }
    }
    if (!issued) {
        issued = tryActsNaive(now, serve_writes);
    }
    if (!issued) {
        issued = tryPresNaive(now);
    }
    if (issued) {
        consider(now + 1);
    }
}

double
Controller::rowBufferHitRate() const
{
    const std::uint64_t cas = stats_.cas_reads + stats_.cas_writes;
    if (cas == 0) {
        return 0.0;
    }
    return static_cast<double>(stats_.row_hits) /
           static_cast<double>(cas);
}

template <class Self, class Ar>
void
ControllerStats::transfer(Self &self, Ar &ar)
{
    ar.u64(self.reads_enqueued);
    ar.u64(self.writes_enqueued);
    ar.u64(self.cas_reads);
    ar.u64(self.cas_writes);
    ar.u64(self.row_hits);
    ar.u64(self.refs_issued);
    ar.u64(self.rfms_issued);
    ar.u64(self.alert_stall_cycles);
    Histogram::transfer(self.read_latency, ar);
}

MOPAC_TRANSFER_INSTANTIATE(ControllerStats);

template <class Self, class Ar>
void
Controller::transfer(Self &self, Ar &ar)
{
    RequestQueue::transfer(self.read_q_, ar, self.params_.read_queue_cap,
                           "controller read queue");
    RequestQueue::transfer(self.write_q_, ar,
                           self.params_.write_queue_cap,
                           "controller write queue");
    auto state = static_cast<std::uint8_t>(self.state_);
    ar.u8(state);
    if constexpr (Ar::kLoading) {
        if (state > static_cast<std::uint8_t>(MaintState::kRefBusy)) {
            throw SerializeError(format(
                "invalid controller maintenance state {}", state));
        }
        self.state_ = static_cast<MaintState>(state);
    }
    ar.u64(self.stall_at_);
    ar.u64(self.busy_until_);
    ar.u64(self.next_ref_at_);
    ar.u64(self.next_wake_);
    ar.flag(self.drain_mode_);
    const std::size_t live_cu = self.cu_pending_.size();
    const std::size_t live_claimed = self.act_claimed_.size();
    ar.vecU8(self.cu_pending_);
    ar.vecU8(self.act_claimed_);
    if (Ar::kLoading && (self.cu_pending_.size() != live_cu ||
                         self.act_claimed_.size() != live_claimed)) {
        throw SerializeError(format(
            "controller bank count mismatch (saved {}/{}, live {}/{})",
            self.cu_pending_.size(), self.act_claimed_.size(), live_cu,
            live_claimed));
    }
    // The mark() cache (hit/conflict masks, hit heads) is scratch
    // derived from the queues and bank state -- not checkpointed; the
    // restored queues mark every bank stale, so it rebuilds itself.
    ControllerStats::transfer(self.stats_, ar);
}

MOPAC_TRANSFER_INSTANTIATE(Controller);

} // namespace mopac
