/**
 * @file
 * Indexed FR-FCFS request queue (ISSUE 9 busy-path layout).
 *
 * The naive controller kept each queue as a flat vector and re-scanned
 * all of it on every scheduling pass.  This container keeps the same
 * FIFO semantics but maintains, incrementally on push/erase:
 *
 *  - a slotted pool (struct-of-arrays: requests, sequence numbers and
 *    link words in separate parallel vectors -- the scheduler's bank
 *    walks touch links and rows without dragging whole Request
 *    structs through the cache);
 *  - a global doubly-linked arrival list (= the old vector order:
 *    serialization iterates it, FCFS priority compares seq numbers
 *    which increase along it);
 *  - per-bank doubly-linked arrival lists plus a bank-occupancy
 *    bitmask, so scheduling passes touch only banks that hold
 *    requests (candidate sets) instead of every queued request;
 *  - a stale-bank mask (staleMask), set for a bank by every push or
 *    erase touching it and cleared by the owner once it has rebuilt
 *    its summary of that bank, so the controller's per-bank
 *    hit/conflict summaries can be cached across scheduling passes
 *    and recomputed only for banks whose list actually changed.
 *
 * All storage is allocated once at init(); push/erase never allocate
 * (the controller's scheduling functions are `// mopac: hot-path`).
 * Monotone sequence numbers are never serialized -- a reload renumbers
 * from zero, which preserves every ordering comparison.
 *
 * Serialization walks the arrival list and rebuilds through push(),
 * so every link word, bank list, and free-slot member is derived
 * state the member-mention audit cannot see being restored:
 * mopac-lint: allow-file(serial-drift)
 */

#ifndef MOPAC_MC_REQUEST_QUEUE_HH
#define MOPAC_MC_REQUEST_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/format.hh"
#include "common/log.hh"
#include "common/serialize.hh"
#include "mc/request.hh"

namespace mopac
{

/** Fixed-capacity FIFO request pool with per-bank candidate lists. */
class RequestQueue
{
  public:
    /** Invalid slot / list terminator. */
    static constexpr std::int32_t kNil = -1;

    /** Size the pool for @p cap requests over @p nbanks banks. */
    void
    init(unsigned cap, unsigned nbanks)
    {
        MOPAC_ASSERT(cap > 0 && nbanks > 0 && nbanks <= 64);
        slots_.assign(cap, Request{});
        seq_.assign(cap, 0);
        next_.assign(cap, kNil);
        prev_.assign(cap, kNil);
        bnext_.assign(cap, kNil);
        bprev_.assign(cap, kNil);
        free_.resize(cap);
        for (unsigned i = 0; i < cap; ++i) {
            free_[i] = static_cast<std::int32_t>(cap - 1 - i);
        }
        free_count_ = cap;
        bank_head_.assign(nbanks, kNil);
        bank_tail_.assign(nbanks, kNil);
        head_ = tail_ = kNil;
        bank_mask_ = 0;
        stale_mask_ = nbanks == 64 ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << nbanks) - 1;
        size_ = 0;
        next_seq_ = 0;
    }

    bool empty() const { return size_ == 0; }
    bool full() const { return free_count_ == 0; }
    std::uint32_t size() const { return size_; }

    /** Banks currently holding at least one request. */
    std::uint64_t bankMask() const { return bank_mask_; }

    const Request &at(std::int32_t slot) const { return slots_[slot]; }

    /** Arrival order along the global list (smaller = older). */
    std::uint64_t seq(std::int32_t slot) const { return seq_[slot]; }

    std::int32_t head() const { return head_; }
    std::int32_t next(std::int32_t slot) const { return next_[slot]; }

    std::int32_t bankHead(unsigned bank) const
    {
        return bank_head_[bank];
    }
    std::int32_t bankNext(std::int32_t slot) const
    {
        return bnext_[slot];
    }

    /**
     * Banks whose derived per-bank summaries are stale: set by every
     * push or erase touching the bank and by markStale(), cleared by
     * clearStale().  init() (hence every restore) marks every bank
     * stale, so it is never serialized.
     */
    std::uint64_t staleMask() const { return stale_mask_; }

    /** Mark @p bank stale for a change outside the queue (an ACT). */
    void markStale(unsigned bank)
    {
        stale_mask_ |= std::uint64_t{1} << bank;
    }

    /** The owner has rebuilt its summaries of the banks in @p banks. */
    void clearStale(std::uint64_t banks) { stale_mask_ &= ~banks; }

    /** Append @p req at the FIFO tail. @return its slot. */
    std::int32_t
    push(const Request &req)
    {
        MOPAC_ASSERT(free_count_ > 0);
        const std::int32_t s = free_[--free_count_];
        slots_[s] = req;
        seq_[s] = next_seq_++;
        // Global arrival list.
        next_[s] = kNil;
        prev_[s] = tail_;
        if (tail_ != kNil) {
            next_[tail_] = s;
        } else {
            head_ = s;
        }
        tail_ = s;
        // Per-bank arrival list.
        const unsigned b = req.bank;
        bnext_[s] = kNil;
        bprev_[s] = bank_tail_[b];
        if (bank_tail_[b] != kNil) {
            bnext_[bank_tail_[b]] = s;
        } else {
            bank_head_[b] = s;
        }
        bank_tail_[b] = s;
        bank_mask_ |= std::uint64_t{1} << b;
        stale_mask_ |= std::uint64_t{1} << b;
        ++size_;
        return s;
    }

    /** Unlink @p slot (global + bank lists) and recycle it. */
    void
    erase(std::int32_t slot)
    {
        MOPAC_ASSERT(size_ > 0);
        // Global list.
        if (prev_[slot] != kNil) {
            next_[prev_[slot]] = next_[slot];
        } else {
            head_ = next_[slot];
        }
        if (next_[slot] != kNil) {
            prev_[next_[slot]] = prev_[slot];
        } else {
            tail_ = prev_[slot];
        }
        // Bank list.
        const unsigned b = slots_[slot].bank;
        if (bprev_[slot] != kNil) {
            bnext_[bprev_[slot]] = bnext_[slot];
        } else {
            bank_head_[b] = bnext_[slot];
        }
        if (bnext_[slot] != kNil) {
            bprev_[bnext_[slot]] = bprev_[slot];
        } else {
            bank_tail_[b] = bprev_[slot];
        }
        if (bank_head_[b] == kNil) {
            bank_mask_ &= ~(std::uint64_t{1} << b);
        }
        stale_mask_ |= std::uint64_t{1} << b;
        free_[free_count_++] = slot;
        --size_;
    }

    /** Drop every request (used by state restore). */
    void
    clear()
    {
        init(static_cast<unsigned>(slots_.size()),
             static_cast<unsigned>(bank_head_.size()));
    }

    /**
     * Serialize the queue contents in arrival order (== the old
     * flat-vector order, so the byte stream is identical to the
     * pre-indexed layout).  Sequence numbers are never serialized; a
     * reload renumbers from zero, which preserves every ordering
     * comparison.  A load rebuilds through push().
     * @param cap Capacity bound; more saved entries than this is a
     *        corrupt or mismatched snapshot.
     * @param what Label for the error message ("read queue", ...).
     */
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar, unsigned cap, const char *what)
    {
        std::uint32_t n = self.size_;
        ar.u32(n);
        if constexpr (Ar::kLoading) {
            if (n > cap) {
                throw SerializeError(format(
                    "{} occupancy {} exceeds capacity {}", what, n, cap));
            }
            self.clear();
            for (std::uint32_t i = 0; i < n; ++i) {
                Request req;
                Request::transfer(req, ar);
                self.push(req);
            }
        } else {
            for (std::int32_t s = self.head_; s != kNil;
                 s = self.next_[s]) {
                Request::transfer(self.slots_[s], ar);
            }
        }
    }

  private:
    std::vector<Request> slots_;
    std::vector<std::uint64_t> seq_;
    std::vector<std::int32_t> next_;
    std::vector<std::int32_t> prev_;
    std::vector<std::int32_t> bnext_;
    std::vector<std::int32_t> bprev_;
    std::vector<std::int32_t> free_;
    std::vector<std::int32_t> bank_head_;
    std::vector<std::int32_t> bank_tail_;
    std::uint32_t free_count_ = 0;
    std::int32_t head_ = kNil;
    std::int32_t tail_ = kNil;
    std::uint64_t bank_mask_ = 0;
    std::uint64_t stale_mask_ = 0;
    std::uint32_t size_ = 0;
    std::uint64_t next_seq_ = 0;
};

} // namespace mopac

#endif // MOPAC_MC_REQUEST_QUEUE_HH
