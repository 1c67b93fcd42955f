/**
 * @file
 * Trace-driven out-of-order core timing model (USIMM style).
 *
 * The model captures the two core-side behaviours that govern
 * sensitivity to memory latency (Table 3: 4 GHz, 4-wide, 256-entry
 * ROB):
 *
 *  - in-order retirement, up to `width` instructions per cycle, with
 *    a load at the ROB head blocking retirement until its data
 *    returns (latency-bound stalls);
 *  - ROB-bounded fetch-ahead with an MSHR limit, so independent
 *    misses overlap (bandwidth-bound workloads hide added latency).
 *
 * Writes retire through a posted write buffer: they only block if the
 * memory controller's write queue refuses them.
 *
 * Busy-path layout: the ROB is a fixed-capacity power-of-two ring
 * buffer (no per-op allocation, contiguous scans), issue() starts at a
 * first-unissued hint and stops as soon as no further op can issue,
 * the MSHR-release walk is gated behind the earliest pending
 * completion, and completion lookups walk an index of the <= mshrs
 * MSHR holders -- all exactly equivalent to the naive full scans.
 * Cycles that only release MSHRs, retire and fetch are simulated in
 * bulk by fastForward(); tests/sim/test_core_reference.cc holds all of
 * it to a core ticked on every cycle.
 */

#ifndef MOPAC_CORE_CORE_HH
#define MOPAC_CORE_CORE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/trace.hh"
#include "mc/request.hh"

namespace mopac
{

/** Where cores hand their memory requests (implemented by the System). */
class RequestSink
{
  public:
    virtual ~RequestSink() = default;

    /**
     * Try to enqueue @p req.
     * @return false if the destination queue is full (retry later).
     */
    virtual bool trySend(const Request &req, Cycle now) = 0;
};

/** Core tuning parameters. */
struct CoreParams
{
    unsigned rob_entries = 256;
    unsigned width = 4;
    unsigned mshrs = 16;
};

/** One trace-driven core. */
class Core
{
  public:
    /**
     * @param id Core index (used as Request::core_id).
     * @param params Microarchitectural parameters.
     * @param trace Instruction stream (not owned).
     * @param target_insts Instructions to retire before reporting done.
     * @param sink Memory request destination (not owned).
     */
    Core(unsigned id, const CoreParams &params, TraceSource *trace,
         std::uint64_t target_insts, RequestSink *sink);

    /**
     * Advance one cycle.
     *
     * @return true when any architectural state changed this cycle
     *         (fetch, retire, issue, MSHR release, even a req-id draw
     *         for a refused read).  A false return certifies the tick
     *         was a no-op, so the Cpu may skip this core until
     *         nextSelfEventAt() or an external wakeup.
     */
    bool tick(Cycle now);

    /**
     * Next-event contract: callable right after tick(@p now) returned
     * false, this is the earliest cycle at which a tick can stop being
     * a no-op without an external wakeup.  The Cpu skips tick() calls
     * strictly before this cycle -- in both engines -- because every
     * channel that could change the outcome earlier is accounted for:
     *
     *  - a completion callback (onReadComplete) is external; the Cpu
     *    lowers the core's wake to the completion's data cycle, before
     *    which nothing the completion changes can act;
     *  - queue space freeing matters only to a core whose last issue
     *    walk had a trySend refused (or ran out of width), and such a
     *    walk leaves issue_idle_ false, which forces a wake at now + 1
     *    here;
     *  - time alone acts through a pending completion's done_at
     *    (releaseMshrs / a retire-blocked head) or through
     *    issue_wake_at_ (a dependency-blocked read whose predecessor
     *    has completed), all of which bound the result.
     *
     * A no-op tick implies fetch is ROB-blocked and retire is head-
     * blocked, so both resume only via the channels above.  The
     * per-cycle reference in tests/sim/test_core_reference.cc pins
     * the certification down.
     */
    Cycle nextSelfEventAt(Cycle now) const;

    /**
     * Fast-forward window: callable right after tick(@p now) returned
     * true, simulate the following cycles whose ticks would only
     * release MSHRs, retire, fetch or sleep, and return the first
     * cycle that needs a real tick() -- one whose issue() walk could
     * send (a freshly fetched memory op, issue_wake_at_, or an MSHR
     * release while a read waits for the MSHR) or that would push
     * retirement to @p retire_cap -- or, if the core's next self event
     * lies past @p last, that event's cycle.  Returns now + 1 when no
     * cycle qualifies.  Retire and fetch advance in bulk between
     * events (the next memory op at the ROB head, the next
     * trace-record boundary, the next MSHR release), not one
     * instruction at a time.
     *
     * @param last Last cycle the window may simulate: the caller caps
     *        it below the earliest completion data cycle and every
     *        cycle at which the run loop reads core state.
     * @param retire_cap Retired-instruction count the window stays
     *        strictly below (the next threshold the run loop watches).
     */
    Cycle fastForward(Cycle now, Cycle last, std::uint64_t retire_cap);

    /** Last cycle a fast-forward window simulated (0 before any). */
    Cycle windowEnd() const { return window_end_; }

    /** A read issued by this core completed (data at @p done_cycle). */
    void onReadComplete(std::uint64_t req_id, Cycle done_cycle);

    /** Has the core retired its target instruction count? */
    bool done() const { return retire_inst_ >= target_insts_; }

    std::uint64_t retiredInsts() const { return retire_inst_; }

    /** Cycle at which the target was reached (valid once done()). */
    Cycle finishCycle() const { return finish_cycle_; }

    /**
     * Begin the measured interval: remember the current instruction
     * count and cycle so IPC excludes warmup.
     */
    void startMeasurement(Cycle now);

    /**
     * Retired instructions inside the measured interval
     * (measurement start to target; cores keep running past their
     * target until every core finishes, and those extra instructions
     * are excluded).
     */
    std::uint64_t measuredInsts() const;

    /** IPC over the measured interval (valid once done()). */
    double measuredIpc() const;

    unsigned id() const { return id_; }

    /**
     * Debug/test hook: the req ids of the reads the MSHR index lists,
     * in index order.  Copies; not for hot paths.
     */
    std::vector<std::uint64_t> mshrIndexReqIds() const;

    /**
     * Snapshot the pipeline: ROB contents (including in-flight
     * reads), the partially dispatched trace record, and every
     * progress counter.  The trace source snapshots separately.
     */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

  private:
    /** An in-flight memory operation occupying a ROB slot. */
    struct MemOp
    {
        std::uint64_t inst_idx;
        Addr line_addr;
        bool is_write;
        bool depends_on_prev;
        bool issued = false;
        bool done = false;
        bool mshr_held = false;
        Cycle done_at = kNeverCycle;
        std::uint64_t req_id = 0;
    };

    // Each phase returns true iff it changed architectural state;
    // tick() unions the reports into its no-op certification.
    bool retire(Cycle now);
    bool fetch(Cycle now);
    bool issue(Cycle now);
    bool releaseMshrs(Cycle now);
    /**
     * Retire bound for fastForward(): the inst_idx of the first op
     * below @p reach that cannot retire at @p now, or the maximum
     * index when there is none.
     */
    std::uint64_t retireBlock(Cycle now, std::uint64_t reach) const;
    /** Release the MSHR of the op at mshr_slots_[@p i]. */
    void dropMshr(std::uint32_t i);

    /** Op at ring position @p i (0 = oldest). */
    MemOp &opAt(std::uint32_t i)
    {
        return ops_[(ops_head_ + i) & ops_mask_];
    }
    const MemOp &opAt(std::uint32_t i) const
    {
        return ops_[(ops_head_ + i) & ops_mask_];
    }

    void pushOp(const MemOp &op);
    void popFront();

    // Construction-time identity and wiring: a restored System
    // rebuilds these from its own config before a snapshot loads, and
    // the trace cursor checkpoints itself in the workload section.
    unsigned id_;                // mopac-lint: allow(serial-drift)
    CoreParams params_;
    TraceSource *trace_;         // mopac-lint: allow(serial-drift)
    std::uint64_t target_insts_; // mopac-lint: allow(serial-drift)
    RequestSink *sink_;          // mopac-lint: allow(serial-drift)

    std::uint64_t fetch_inst_ = 0;
    std::uint64_t retire_inst_ = 0;

    // ROB ring buffer: fixed power-of-two capacity sized at
    // construction, occupancy bounded by rob_entries.  Serialized as
    // the flat op sequence (oldest first), byte-identical to the old
    // deque layout; head/count/mask are rebuilt on load.  A save
    // walks it through opAt(), a load through the rebuild.
    std::vector<MemOp> ops_; // mopac-lint: allow(serial-drift)
    std::uint32_t ops_head_ = 0;  // mopac-lint: allow(serial-drift)
    std::uint32_t ops_count_ = 0; // mopac-lint: allow(serial-drift)
    std::uint32_t ops_mask_ = 0;  // mopac-lint: allow(serial-drift)

    // Derived issue()/release gating state, recomputed on load.
    // Invariants: every op at ring position < first_unissued_ has
    // issued set; unissued_ops_/unissued_writes_ count !issued ops
    // (and the writes among them); mshr_releases_ counts done ops
    // still holding an MSHR and next_release_at_ is a lower bound on
    // their earliest done_at (exact right after a release walk,
    // kNeverCycle iff none pending).
    std::uint32_t first_unissued_ = 0;   // mopac-lint: allow(serial-drift)
    std::uint32_t unissued_ops_ = 0;     // mopac-lint: allow(serial-drift)
    std::uint32_t unissued_writes_ = 0;  // mopac-lint: allow(serial-drift)
    std::uint32_t mshr_releases_ = 0;    // mopac-lint: allow(serial-drift)
    Cycle next_release_at_ = kNeverCycle; // mopac-lint: allow(serial-drift)

    // issue() memoization: true when the last walk examined every
    // unissued op and had no trySend refused -- then every op it left
    // unissued is a dependency- or MSHR-blocked read, and the walk
    // stays a no-op (and may be skipped exactly) until new work
    // arrives (pushOp), an MSHR frees, or the clock reaches
    // issue_wake_at_ (the earliest done_at gating a
    // dependency-blocked read whose predecessor already completed).
    // A completion never clears it: it lowers issue_wake_at_ to its
    // data cycle when the op after its read is an unissued dependent
    // read, the only op whose check it changes, and before that cycle
    // the read still counts as pending.  A refused trySend clears it,
    // because queue space can free on any cycle and refused reads
    // burn req ids that bit-identity requires on exact cycles; so
    // does a walk cut short by the issue width.
    bool issue_idle_ = false;          // mopac-lint: allow(serial-drift)
    Cycle issue_wake_at_ = kNeverCycle; // mopac-lint: allow(serial-drift)
    // Set by an idle walk that left a read held back only by the MSHR
    // limit (or left reads unexamined): an MSHR release would let the
    // next walk send it.  Clear means every read left waits on its
    // predecessor's data, so a release changes nothing for issue().
    bool mshr_waiter_ = false;          // mopac-lint: allow(serial-drift)

    // MSHR index: the ops_ positions of the ops holding an MSHR, in
    // no particular order (mshr_count_ entries, at most params_.mshrs).
    // onReadComplete() and releaseMshrs() walk it instead of the
    // whole ROB; a snapshot load rebuilds it.
    std::vector<std::uint32_t> mshr_slots_; // mopac-lint: allow(serial-drift)
    std::uint32_t mshr_count_ = 0;          // mopac-lint: allow(serial-drift)

    // Partially dispatched trace record.
    bool record_pending_ = false;
    TraceRecord record_{};
    std::uint32_t gap_left_ = 0;

    unsigned outstanding_reads_ = 0;
    std::uint64_t next_req_id_ = 1;
    std::uint64_t issued_reads_ = 0;
    std::uint64_t issued_writes_ = 0;

    Cycle finish_cycle_ = 0;
    /** Retired-instruction count when the target was reached. */
    std::uint64_t finish_insts_ = 0;
    Cycle measure_start_cycle_ = 0;
    std::uint64_t measure_start_insts_ = 0;

    // Last cycle fastForward() simulated: the Cpu checks completions
    // against it.  Scratch; a snapshot load resets it.
    Cycle window_end_ = 0; // mopac-lint: allow(serial-drift)
};

} // namespace mopac

#endif // MOPAC_CORE_CORE_HH
