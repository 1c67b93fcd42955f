/**
 * @file
 * Core implementation.
 *
 * Hot-loop structure: the Cpu ticks a core only on cycles where it
 * can do something, and a core that made progress fast-forwards
 * through the retire/fetch-only cycles after it (fastForward()).  The
 * per-tick work is gated hard -- MSHR releases only walk the MSHR
 * index (never the ROB) when a pending completion is due, issue()
 * starts at the first-unissued hint and stops at the first point
 * where nothing further can issue, and the ROB itself is a fixed ring
 * (no deque chunk chasing, no allocation).  Every gate is exactly
 * equivalent to the naive full scan; the per-cycle core reference and
 * the checkpoint suites verify bit-identical results.
 */

#include "core.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"
#include "common/serialize.hh"
#include "sim/profile.hh"

namespace mopac
{

namespace
{

std::uint32_t
ceilPow2(std::uint32_t v)
{
    std::uint32_t p = 1;
    while (p < v) {
        p <<= 1;
    }
    return p;
}

} // namespace

Core::Core(unsigned id, const CoreParams &params, TraceSource *trace,
           std::uint64_t target_insts, RequestSink *sink)
    : id_(id), params_(params), trace_(trace),
      target_insts_(target_insts), sink_(sink)
{
    MOPAC_ASSERT(trace_ != nullptr && sink_ != nullptr);
    MOPAC_ASSERT(params_.rob_entries > 0 && params_.width > 0);
    MOPAC_ASSERT(params_.mshrs > 0);
    const std::uint32_t cap = ceilPow2(params_.rob_entries);
    ops_.assign(cap, MemOp{});
    ops_mask_ = cap - 1;
    mshr_slots_.assign(params_.mshrs, 0);
}

void
Core::dropMshr(std::uint32_t i)
{
    MOPAC_ASSERT(i < mshr_count_);
    MemOp &op = ops_[mshr_slots_[i]];
    MOPAC_ASSERT(op.mshr_held);
    op.mshr_held = false;
    mshr_slots_[i] = mshr_slots_[--mshr_count_];
    MOPAC_ASSERT(outstanding_reads_ > 0);
    --outstanding_reads_;
    MOPAC_ASSERT(mshr_releases_ > 0);
    --mshr_releases_;
    issue_idle_ = false;
}

void
Core::pushOp(const MemOp &op)
{
    MOPAC_ASSERT(ops_count_ < params_.rob_entries);
    ops_[(ops_head_ + ops_count_) & ops_mask_] = op;
    ++ops_count_;
    ++unissued_ops_;
    if (op.is_write) {
        ++unissued_writes_;
    }
    issue_idle_ = false;
}

void
Core::popFront()
{
    MOPAC_ASSERT(ops_count_ > 0);
    ops_head_ = (ops_head_ + 1) & ops_mask_;
    --ops_count_;
    // Retired ops are always issued, so the unissued counters are
    // untouched; ring positions shifted down by one.
    if (first_unissued_ > 0) {
        --first_unissued_;
    }
}

// mopac: hot-path
bool
Core::tick(Cycle now)
{
    // Each phase reports whether it changed architectural state; the
    // union is what the event engine uses to prove a cycle was a
    // no-op.  The reports are exact: every state transition a phase
    // can make moves at least one progress scalar (a refused read
    // trySend still burns a req id; a refused write changes nothing),
    // and each phase returns true precisely when one moved -- the
    // engine-differential suite pins this down against the tick
    // engine.
    SimProfile &prof = simProfile();
    ++prof.core_ticks;

    bool changed = releaseMshrs(now);
    changed |= retire(now);
    changed |= fetch(now);
    changed |= issue(now);

    if (retire_inst_ >= target_insts_ && finish_cycle_ == 0) {
        finish_cycle_ = now;
        finish_insts_ = retire_inst_;
    }
    prof.core_active_ticks += changed ? 1 : 0;
    return changed;
}

// mopac: hot-path
bool
Core::releaseMshrs(Cycle now)
{
    // Release MSHRs whose data has arrived.  next_release_at_ is a
    // lower bound on the earliest pending completion, so skipping the
    // walk before it is exact; the walk itself restores the bound to
    // the true minimum.
    if (mshr_releases_ == 0 || now < next_release_at_) {
        return false;
    }
    ++simProfile().core_release_scans;
    bool released = false;
    Cycle next = kNeverCycle;
    for (std::uint32_t i = 0; i < mshr_count_;) {
        const MemOp &op = ops_[mshr_slots_[i]];
        if (op.done && now >= op.done_at) {
            // dropMshr() moves the last entry into slot i.
            dropMshr(i);
            released = true;
            continue;
        }
        if (op.done) {
            next = std::min(next, op.done_at);
        }
        ++i;
    }
    next_release_at_ = next;
    return released;
}

// mopac: hot-path
Cycle
Core::nextSelfEventAt(Cycle now) const
{
    // A walk that had a trySend refused or ran out of width
    // (issue_idle_ false with work pending) must repeat every cycle:
    // queue space can free at any time, and refused reads burn req
    // ids on exact cycles.
    if (unissued_ops_ != 0 && !issue_idle_) {
        return now + 1;
    }
    Cycle wake = kNeverCycle;
    if (mshr_releases_ != 0) {
        wake = std::min(wake, next_release_at_);
    }
    if (issue_idle_) {
        wake = std::min(wake, issue_wake_at_);
    }
    if (ops_count_ != 0) {
        // Retire blocked on the head read's known completion time.
        const MemOp &head = opAt(0);
        if (head.inst_idx == retire_inst_ && !head.is_write &&
            head.done && head.done_at > now) {
            wake = std::min(wake, head.done_at);
        }
    }
    return wake;
}

// mopac: hot-path
std::uint64_t
Core::retireBlock(Cycle now, std::uint64_t reach) const
{
    // Below reach, the first op retirement cannot pass at now: an
    // unissued write, or a read whose data has not arrived.
    for (std::uint32_t j = 0; j < ops_count_; ++j) {
        const MemOp &op = opAt(j);
        if (op.inst_idx >= reach) {
            break;
        }
        const bool retirable =
            op.is_write ? op.issued : (op.done && op.done_at <= now);
        if (!retirable) {
            return op.inst_idx;
        }
    }
    return std::numeric_limits<std::uint64_t>::max();
}

// mopac: hot-path
Cycle
Core::fastForward(Cycle now, Cycle last, std::uint64_t retire_cap)
{
    // A window covers only cycles whose tick() would not walk issue()
    // or whose walk would attempt nothing.  An MSHR release re-arms
    // the walk, so it ends the window if a read waits for the MSHR;
    // otherwise it stays inside the core.
    if (unissued_ops_ != 0) {
        if (!issue_idle_) {
            return now + 1;
        }
        last = std::min(last, issue_wake_at_ - 1);
        if (mshr_waiter_ && mshr_releases_ != 0) {
            last = std::min(last, next_release_at_ - 1);
        }
    }
    if (last <= now) {
        return now + 1;
    }

    // Between MSHR releases the retirability of every ROB op is
    // fixed: no write issues and no new data arrives inside the
    // window, so retirement runs freely up to the first op that
    // cannot retire.  Ops past what the window could retire at full
    // width do not matter.
    const std::uint64_t width = params_.width;
    std::uint64_t block =
        retireBlock(now, retire_inst_ + (last - now) * width);

    // A cycle that turns out to need a real tick may already have had
    // its MSHR release or record pull done here.  That is safe: t <=
    // last, so the Cpu ticks the core at t before anything reads it,
    // and tick(t) then finds the release done or the record pending
    // and finishes cycle t exactly as it would have.
    Cycle t = now + 1;
    Cycle wake = 0; // set when the window ends asleep
    std::uint64_t cycles = 1;
    for (; t <= last; t += cycles) {
        // The tick at t, phase by phase: release the MSHRs whose data
        // has arrived ...
        const bool released = releaseMshrs(t);
        if (released) {
            block = retireBlock(t, retire_inst_ + (last - t + 1) * width);
            if (unissued_ops_ != 0) {
                // The walk the release re-arms would find every
                // waiting read dependency-blocked until
                // issue_wake_at_ > t: it stays idle.
                issue_idle_ = true;
            }
        }
        // ... retire up to width instructions, never past fetch or
        // the blocking op ...
        const std::uint64_t retired =
            std::min({retire_inst_ + width, fetch_inst_, block});
        if (retired >= retire_cap) {
            break; // the run loop observes this count at t
        }
        // ... then fetch into the freed ROB space, up to the next
        // record's memory op.
        const std::uint64_t space =
            retired + params_.rob_entries - fetch_inst_;
        if (space > 0 && !record_pending_) {
            record_ = trace_->next();
            gap_left_ = record_.inst_gap;
            record_pending_ = true;
        }
        const std::uint64_t fetched =
            std::min<std::uint64_t>({width, space, gap_left_});
        if (fetched < width && fetched < space) {
            break; // fetch dispatches the memory op: issue() walks at t
        }
        if (!released && retired == retire_inst_ && fetched == 0) {
            // tick(t) would return false, and so would every tick
            // before the core's next self event: sleep through them
            // inside the window if it comes soon enough.
            wake = std::max(t + 1, nextSelfEventAt(t));
            if (wake > last) {
                break;
            }
            cycles = wake - t;
            wake = 0;
            continue;
        }
        // Full-width retire and fetch repeat unchanged until the
        // blocking op, the record boundary, the retire cap, the next
        // release or the window's end: take all those cycles at once.
        cycles = 1;
        std::uint64_t retire_end = retired;
        std::uint64_t fetch_n = fetched;
        if (retired - retire_inst_ == width && fetched == width) {
            cycles = std::min({(block - retire_inst_) / width,
                               gap_left_ / width,
                               (retire_cap - 1 - retire_inst_) / width,
                               last - t + 1});
            if (mshr_releases_ != 0) {
                cycles = std::min<std::uint64_t>(cycles,
                                                 next_release_at_ - t);
            }
            retire_end = retire_inst_ + cycles * width;
            fetch_n = cycles * width;
        }
        while (ops_count_ > 0 && opAt(0).inst_idx < retire_end) {
            // Retirable reads have released their MSHR already.
            MOPAC_ASSERT(!opAt(0).mshr_held);
            popFront();
        }
        retire_inst_ = retire_end;
        fetch_inst_ += fetch_n;
        gap_left_ -= static_cast<std::uint32_t>(fetch_n);
    }
    window_end_ = t - 1;
    SimProfile &prof = simProfile();
    prof.core_ff_cycles += t - 1 - now;
    prof.core_ff_windows += t - 1 > now ? 1 : 0;
    // An idle core has simulated through t - 1, and tick(t) would be
    // a no-op, so it sleeps on the bound that no-op would report.
    return wake != 0 ? wake : t;
}

// mopac: hot-path
bool
Core::retire(Cycle now)
{
    // Every loop iteration advances retire_inst_, so "any iteration
    // ran" is exactly "state changed".
    unsigned budget = params_.width;
    while (budget > 0 && retire_inst_ < fetch_inst_) {
        if (ops_count_ > 0 && opAt(0).inst_idx == retire_inst_) {
            MemOp &op = opAt(0);
            if (op.is_write) {
                // Posted write: retires once the controller accepted
                // it (write-buffer backpressure otherwise).
                if (!op.issued) {
                    break;
                }
            } else {
                if (!op.done || now < op.done_at) {
                    break;
                }
                if (op.mshr_held) {
                    // The head sits at ops_ position ops_head_.
                    std::uint32_t i = 0;
                    while (mshr_slots_[i] != ops_head_) {
                        ++i;
                    }
                    dropMshr(i);
                }
            }
            popFront();
        }
        ++retire_inst_;
        --budget;
    }
    return budget < params_.width;
}

// mopac: hot-path
bool
Core::fetch(Cycle)
{
    // Every loop iteration advances fetch_inst_ or dispatches an op
    // (the trace always yields a record), so the loop runs iff ROB
    // space exists at entry -- which is exactly "state changed".
    const bool changed = fetch_inst_ < retire_inst_ + params_.rob_entries;
    unsigned budget = params_.width;
    while (budget > 0 &&
           fetch_inst_ < retire_inst_ + params_.rob_entries) {
        if (!record_pending_) {
            record_ = trace_->next();
            gap_left_ = record_.inst_gap;
            record_pending_ = true;
        }
        if (gap_left_ > 0) {
            const std::uint64_t rob_space =
                retire_inst_ + params_.rob_entries - fetch_inst_;
            const std::uint32_t n = static_cast<std::uint32_t>(
                std::min<std::uint64_t>({gap_left_, budget, rob_space}));
            fetch_inst_ += n;
            gap_left_ -= n;
            budget -= n;
            continue;
        }
        // Dispatch the memory operation itself.
        MemOp op;
        op.inst_idx = fetch_inst_;
        op.line_addr = record_.line_addr;
        op.is_write = record_.is_write;
        op.depends_on_prev = record_.depends_on_prev;
        pushOp(op);
        ++fetch_inst_;
        --budget;
        record_pending_ = false;
    }
    return changed;
}

// mopac: hot-path
bool
Core::issue(Cycle now)
{
    // Changed iff a req id was drawn (every read attempt, even
    // refused) or a write was accepted; a refused write leaves no
    // trace.
    if (unissued_ops_ == 0) {
        return false;
    }
    if (issue_idle_ && now < issue_wake_at_) {
        // The last walk attempted nothing and nothing that could
        // change its outcome has happened since -- re-walking would
        // be a bitwise no-op, so skip it.
        return false;
    }
    // Ops below the hint are all issued; advancing it here is
    // amortized O(1) per issued op.
    while (first_unissued_ < ops_count_ && opAt(first_unissued_).issued) {
        ++first_unissued_;
    }
    MOPAC_ASSERT(first_unissued_ < ops_count_);
    SimProfile &prof = simProfile();
    ++prof.core_issue_scans;
    unsigned budget = params_.width;

    if (outstanding_reads_ >= params_.mshrs) {
        // Reads are MSHR-blocked for this whole call (outstanding
        // only grows during issue), and a blocked read draws no req
        // id, so only unissued writes matter: walk those and nothing
        // else.  Dependency trackers gate reads only, so they are
        // not needed here.
        bool accepted = false;
        bool refused = false;
        std::uint32_t remaining_w = unissued_writes_;
        for (std::uint32_t j = first_unissued_;
             j < ops_count_ && budget > 0 && remaining_w > 0; ++j) {
            ++prof.core_issue_steps;
            MemOp &op = opAt(j);
            if (op.issued || !op.is_write) {
                continue;
            }
            --remaining_w;
            Request req;
            req.line_addr = op.line_addr;
            req.is_write = true;
            req.core_id = id_;
            if (sink_->trySend(req, now)) {
                op.issued = true;
                ++issued_writes_;
                --unissued_ops_;
                --unissued_writes_;
                --budget;
                accepted = true;
            } else {
                refused = true;
            }
        }
        // Once every write is in, the reads left wait for an MSHR.
        issue_idle_ = !refused && unissued_writes_ == 0;
        issue_wake_at_ = kNeverCycle;
        mshr_waiter_ = unissued_ops_ != 0;
        return accepted;
    }

    // Dependency trackers depend only on the immediately preceding
    // op, so they reconstruct in O(1) at the hint.
    bool prev_read_done = true;
    bool prev_was_read = false;
    Cycle prev_done_at = kNeverCycle;
    if (first_unissued_ > 0) {
        const MemOp &p = opAt(first_unissued_ - 1);
        prev_was_read = !p.is_write;
        prev_read_done = p.done && now >= p.done_at;
        prev_done_at = (!p.is_write && p.done) ? p.done_at
                                               : kNeverCycle;
    }
    std::uint32_t remaining = unissued_ops_;
    std::uint32_t remaining_w = unissued_writes_;
    bool refused = false;
    bool waiter = false;
    bool changed = false;
    Cycle wake = kNeverCycle;
    for (std::uint32_t j = first_unissued_; j < ops_count_; ++j) {
        ++prof.core_issue_steps;
        MemOp &op = opAt(j);
        const bool dep_ok =
            !op.depends_on_prev || !prev_was_read || prev_read_done;
        if (!op.issued) {
            if (op.is_write) {
                --remaining_w;
                Request req;
                req.line_addr = op.line_addr;
                req.is_write = true;
                req.core_id = id_;
                if (sink_->trySend(req, now)) {
                    op.issued = true;
                    ++issued_writes_;
                    --unissued_ops_;
                    --unissued_writes_;
                    --budget;
                    changed = true;
                } else {
                    refused = true;
                }
            } else if (dep_ok && outstanding_reads_ < params_.mshrs) {
                changed = true; // the id draw below, even if refused
                Request req;
                req.line_addr = op.line_addr;
                req.is_write = false;
                req.core_id = id_;
                req.req_id = next_req_id_++;
                if (sink_->trySend(req, now)) {
                    op.issued = true;
                    op.req_id = req.req_id;
                    op.mshr_held = true;
                    mshr_slots_[mshr_count_++] =
                        (ops_head_ + j) & ops_mask_;
                    ++outstanding_reads_;
                    ++issued_reads_;
                    --unissued_ops_;
                    --budget;
                } else {
                    refused = true;
                }
            } else if (!dep_ok) {
                // Blocked on the predecessor: if it has completed,
                // time alone unblocks this read at its done_at.
                wake = std::min(wake, prev_done_at);
            } else {
                waiter = true; // only the MSHR limit holds it back
            }
            --remaining;
        }
        if (!op.is_write) {
            prev_was_read = true;
            prev_read_done = op.done && now >= op.done_at;
            prev_done_at = op.done ? op.done_at : kNeverCycle;
        } else {
            prev_was_read = false;
        }
        // Past this point the naive scan can have no further effect:
        // no budget, no unissued ops ahead, or reads MSHR-blocked
        // with no unissued writes ahead.
        if (budget == 0 || remaining == 0 ||
            (outstanding_reads_ >= params_.mshrs && remaining_w == 0)) {
            break;
        }
    }
    // A walk that saw every unissued op and had no send refused
    // leaves only dependency- or MSHR-blocked reads behind: walking
    // again changes nothing until a fetch, an MSHR release or wake
    // (the blocking done_at of a completed predecessor).  A refusal
    // or a budget cut-off makes the next cycle walk again.
    const bool complete =
        remaining == 0 ||
        (outstanding_reads_ >= params_.mshrs && remaining_w == 0);
    issue_idle_ = !refused && complete;
    issue_wake_at_ = wake;
    // Reads past an MSHR-limit cut-off were not examined: assume one
    // of them waits for an MSHR.
    mshr_waiter_ = waiter || remaining != 0;
    return changed;
}

// mopac: hot-path
void
Core::onReadComplete(std::uint64_t req_id, Cycle done_cycle)
{
    // An issued read holds its MSHR until it is done, so the index
    // holds every candidate.
    for (std::uint32_t i = 0; i < mshr_count_; ++i) {
        MemOp &op = ops_[mshr_slots_[i]];
        if (!op.done && op.req_id == req_id) {
            op.done = true;
            op.done_at = done_cycle;
            MOPAC_ASSERT(op.mshr_held);
            ++mshr_releases_;
            next_release_at_ = std::min(next_release_at_, done_cycle);
            // A completion can unblock only the op right after it (the
            // dependence check looks one op back), and not before its
            // data arrives: until then every check still sees the read
            // pending.  So an idle issue walk stays idle, and needs to
            // rerun at done_cycle only if that op is an unissued
            // dependent read.
            const std::uint32_t pos =
                (mshr_slots_[i] - ops_head_) & ops_mask_;
            if (pos + 1 < ops_count_) {
                const MemOp &next = opAt(pos + 1);
                if (!next.issued && !next.is_write &&
                    next.depends_on_prev) {
                    issue_wake_at_ = std::min(issue_wake_at_, done_cycle);
                }
            }
            return;
        }
    }
    panic("core {}: completion for unknown req_id {}", id_, req_id);
}

void
Core::startMeasurement(Cycle now)
{
    measure_start_cycle_ = now;
    measure_start_insts_ = retire_inst_;
}

std::uint64_t
Core::measuredInsts() const
{
    // Once done, freeze at the count captured with finish_cycle_ so
    // post-target retirement (while slower cores finish) is excluded.
    const std::uint64_t end =
        finish_cycle_ > 0 ? finish_insts_ : retire_inst_;
    return end - measure_start_insts_;
}

double
Core::measuredIpc() const
{
    const Cycle end = finish_cycle_ > 0 ? finish_cycle_ : 0;
    if (end <= measure_start_cycle_) {
        return 0.0;
    }
    return static_cast<double>(measuredInsts()) /
           static_cast<double>(end - measure_start_cycle_);
}

std::vector<std::uint64_t>
Core::mshrIndexReqIds() const
{
    std::vector<std::uint64_t> ids;
    ids.reserve(mshr_count_);
    for (std::uint32_t i = 0; i < mshr_count_; ++i) {
        ids.push_back(ops_[mshr_slots_[i]].req_id);
    }
    return ids;
}

template <class Self, class Ar>
void
Core::transfer(Self &self, Ar &ar)
{
    ar.u64(self.fetch_inst_);
    ar.u64(self.retire_inst_);
    std::uint32_t n = self.ops_count_;
    ar.u32(n);
    if constexpr (Ar::kLoading) {
        if (n > self.params_.rob_entries) {
            throw SerializeError(format(
                "core ROB occupancy {} exceeds {} entries", n,
                self.params_.rob_entries));
        }
        // Rebuild the ring from position 0 and recompute every derived
        // gate (hint, unissued counters, pending-release bound) from
        // the restored ops.
        self.ops_head_ = 0;
        self.ops_count_ = 0;
        self.first_unissued_ = 0;
        self.unissued_ops_ = 0;
        self.unissued_writes_ = 0;
        self.mshr_releases_ = 0;
        self.mshr_count_ = 0;
        self.next_release_at_ = kNeverCycle;
        self.issue_idle_ = false;
        self.issue_wake_at_ = kNeverCycle;
        self.mshr_waiter_ = false;
        self.window_end_ = 0;
    }
    for (std::uint32_t j = 0; j < n; ++j) {
        MemOp op = Ar::kLoading ? MemOp{} : self.opAt(j);
        ar.u64(op.inst_idx);
        ar.u64(op.line_addr);
        ar.flag(op.is_write);
        ar.flag(op.depends_on_prev);
        ar.flag(op.issued);
        ar.flag(op.done);
        ar.flag(op.mshr_held);
        ar.u64(op.done_at);
        ar.u64(op.req_id);
        if constexpr (Ar::kLoading) {
            if (op.mshr_held) {
                if (self.mshr_count_ == self.mshr_slots_.size()) {
                    throw SerializeError(
                        format("core holds more than {} MSHRs",
                               self.mshr_slots_.size()));
                }
                self.mshr_slots_[self.mshr_count_++] = self.ops_count_;
            }
            self.ops_[self.ops_count_++] = op;
            if (!op.issued) {
                ++self.unissued_ops_;
                if (op.is_write) {
                    ++self.unissued_writes_;
                }
            } else if (op.mshr_held && op.done) {
                ++self.mshr_releases_;
                self.next_release_at_ =
                    std::min(self.next_release_at_, op.done_at);
            }
        }
    }
    ar.flag(self.record_pending_);
    TraceRecord::transfer(self.record_, ar);
    ar.u32(self.gap_left_);
    ar.u32(self.outstanding_reads_);
    ar.u64(self.next_req_id_);
    ar.u64(self.issued_reads_);
    ar.u64(self.issued_writes_);
    ar.u64(self.finish_cycle_);
    ar.u64(self.finish_insts_);
    ar.u64(self.measure_start_cycle_);
    ar.u64(self.measure_start_insts_);
}

MOPAC_TRANSFER_INSTANTIATE(Core);

} // namespace mopac
