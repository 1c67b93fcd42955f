/**
 * @file
 * Core implementation.
 *
 * Hot-loop structure (ISSUE 9): tick() is called for every core on
 * every executed cycle, so the per-cycle work is gated hard --
 * MSHR releases only walk the MSHR index (never the ROB) when a
 * pending completion is due,
 * issue() starts at the first-unissued hint and stops at the first
 * point where nothing further can issue, and the ROB itself is a
 * fixed ring (no deque chunk chasing, no allocation).  Every gate is
 * exactly equivalent to the naive full scan; the engine-differential
 * and checkpoint suites verify bit-identical results.
 */

#include "core.hh"

#include <algorithm>

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
Core::idleUntil(Cycle now) const
{
    // A walk that attempted a trySend (issue_idle_ false with work
    // pending) must repeat every cycle: queue space can free at any
    // time, and refused reads burn req ids on exact cycles.
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
Cycle
Core::nextSelfEventAt(Cycle now) const
{
    if (mshr_releases_ == 0) {
        return kNeverCycle;
    }
    if (next_release_at_ > now) {
        // Lower bound on the earliest pending completion: waking at
        // or before the true event is safe (an early tick is a
        // certified no-op), so a conservative bound never desyncs the
        // engines.
        return next_release_at_;
    }
    // Every op whose completion is still ahead holds its MSHR (a
    // release needs now >= done_at), so the index covers them all.
    Cycle next = kNeverCycle;
    for (std::uint32_t i = 0; i < mshr_count_; ++i) {
        const MemOp &op = ops_[mshr_slots_[i]];
        if (op.done && op.done_at > now) {
            next = std::min(next, op.done_at);
        }
    }
    return next;
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
        if (unissued_writes_ == 0) {
            // Nothing can issue until a release/completion/fetch,
            // all of which clear issue_idle_.
            issue_idle_ = true;
            issue_wake_at_ = kNeverCycle;
            return false;
        }
        bool accepted = false;
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
            }
        }
        // A write attempt always happened here (unissued_writes_ was
        // nonzero), so the walk must repeat next cycle.
        issue_idle_ = false;
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
    bool attempted = false;
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
                attempted = true;
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
                }
            } else if (dep_ok && outstanding_reads_ < params_.mshrs) {
                attempted = true;
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
                }
            } else if (!dep_ok) {
                // Blocked on the predecessor: if it has completed,
                // time alone unblocks this read at its done_at.
                wake = std::min(wake, prev_done_at);
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
    if (!attempted) {
        // Zero-attempt walks always reach remaining == 0, so every
        // unissued op's blocking condition is captured in wake.
        issue_idle_ = true;
        issue_wake_at_ = wake;
    } else {
        issue_idle_ = false;
    }
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
            // A completion can unblock a dependent read.
            issue_idle_ = false;
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

void
Core::saveState(Serializer &ser) const
{
    ser.putU64(fetch_inst_);
    ser.putU64(retire_inst_);
    ser.putU32(ops_count_);
    for (std::uint32_t j = 0; j < ops_count_; ++j) {
        const MemOp &op = opAt(j);
        ser.putU64(op.inst_idx);
        ser.putU64(op.line_addr);
        ser.putU8(op.is_write ? 1 : 0);
        ser.putU8(op.depends_on_prev ? 1 : 0);
        ser.putU8(op.issued ? 1 : 0);
        ser.putU8(op.done ? 1 : 0);
        ser.putU8(op.mshr_held ? 1 : 0);
        ser.putU64(op.done_at);
        ser.putU64(op.req_id);
    }
    ser.putU8(record_pending_ ? 1 : 0);
    record_.saveState(ser);
    ser.putU32(gap_left_);
    ser.putU32(outstanding_reads_);
    ser.putU64(next_req_id_);
    ser.putU64(issued_reads_);
    ser.putU64(issued_writes_);
    ser.putU64(finish_cycle_);
    ser.putU64(finish_insts_);
    ser.putU64(measure_start_cycle_);
    ser.putU64(measure_start_insts_);
}

void
Core::loadState(Deserializer &des)
{
    fetch_inst_ = des.getU64();
    retire_inst_ = des.getU64();
    const std::uint32_t n = des.getU32();
    if (n > params_.rob_entries) {
        throw SerializeError(format(
            "core ROB occupancy {} exceeds {} entries", n,
            params_.rob_entries));
    }
    // Rebuild the ring from position 0 and recompute every derived
    // gate (hint, unissued counters, pending-release bound) from the
    // restored ops.
    ops_head_ = 0;
    ops_count_ = 0;
    first_unissued_ = 0;
    unissued_ops_ = 0;
    unissued_writes_ = 0;
    mshr_releases_ = 0;
    mshr_count_ = 0;
    next_release_at_ = kNeverCycle;
    issue_idle_ = false;
    issue_wake_at_ = kNeverCycle;
    for (std::uint32_t i = 0; i < n; ++i) {
        MemOp op;
        op.inst_idx = des.getU64();
        op.line_addr = des.getU64();
        op.is_write = des.getU8() != 0;
        op.depends_on_prev = des.getU8() != 0;
        op.issued = des.getU8() != 0;
        op.done = des.getU8() != 0;
        op.mshr_held = des.getU8() != 0;
        op.done_at = des.getU64();
        op.req_id = des.getU64();
        if (op.mshr_held) {
            if (mshr_count_ == mshr_slots_.size()) {
                throw SerializeError(format(
                    "core holds more than {} MSHRs", mshr_slots_.size()));
            }
            mshr_slots_[mshr_count_++] = ops_count_;
        }
        ops_[ops_count_++] = op;
        if (!op.issued) {
            ++unissued_ops_;
            if (op.is_write) {
                ++unissued_writes_;
            }
        } else if (op.mshr_held && op.done) {
            ++mshr_releases_;
            next_release_at_ = std::min(next_release_at_, op.done_at);
        }
    }
    record_pending_ = des.getU8() != 0;
    record_.loadState(des);
    gap_left_ = des.getU32();
    outstanding_reads_ = des.getU32();
    next_req_id_ = des.getU64();
    issued_reads_ = des.getU64();
    issued_writes_ = des.getU64();
    finish_cycle_ = des.getU64();
    finish_insts_ = des.getU64();
    measure_start_cycle_ = des.getU64();
    measure_start_insts_ = des.getU64();
}

} // namespace mopac
