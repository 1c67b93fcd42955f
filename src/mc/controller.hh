/**
 * @file
 * Per-sub-channel memory controller.
 *
 * Scheduling is FR-FCFS with read priority and watermark-based write
 * draining.  The controller also runs the refresh scheduler (REF
 * every tREFI after closing all banks), the ABO protocol (on ALERT it
 * keeps operating for tABO = 180 ns, then stalls, closes all banks
 * and issues one RFM of 350 ns -- Figure 3 of the paper), and the
 * row-closure policy (open-page, close-page, or timeout; Appendix C).
 *
 * For MoPAC-C the controller keeps one bit per bank recording whether
 * the mitigation engine selected the open activation for a counter
 * update; the bit chooses PRE vs PREcu (and their differing tRAS /
 * tRP) when the row is eventually closed (paper §5.1).
 *
 * Busy-path layout (ISSUE 9): the queues are indexed RequestQueue
 * pools with per-bank arrival lists, so every scheduling pass walks
 * per-bank *candidates* (oldest hit per open bank, oldest request per
 * closed bank) via bitmask iteration instead of re-scanning whole
 * queues.  Candidate selection and the next_wake_/consider() values
 * are exactly those of the naive scans -- the scheduler property test
 * (tests/mc/test_scheduler_policy.cc reference model) and the
 * engine-differential suite pin that equivalence down.
 */

#ifndef MOPAC_MC_CONTROLLER_HH
#define MOPAC_MC_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/device.hh"
#include "mc/mapping.hh"
#include "mc/request.hh"
#include "mc/request_queue.hh"

namespace mopac
{

/** Row-closure policy (Appendix C, Table 15). */
enum class PagePolicy
{
    kOpen,
    kClose,
    kTimeout,
};

/** Controller tuning parameters. */
struct ControllerParams
{
    unsigned read_queue_cap = 64;
    unsigned write_queue_cap = 64;
    /** Enter write-drain mode at this occupancy... */
    unsigned wq_drain_high = 40;
    /** ...and leave it at this one. */
    unsigned wq_drain_low = 32;
    PagePolicy page_policy = PagePolicy::kOpen;
    /** Row-open timeout for PagePolicy::kTimeout. */
    Cycle timeout_ton = nsToCycles(200.0);
    /**
     * Reference scheduler: replace the indexed candidate walks with
     * the full-queue scans they replaced.  Bit-identical to the
     * indexed path by design -- the scheduler property test drives
     * both over randomized traffic to prove it.  Deliberately
     * excluded from configSignature(), like the run-loop engine
     * choice.
     */
    bool naive_scan = false;
};

/** Controller statistics. */
struct ControllerStats
{
    std::uint64_t reads_enqueued = 0;
    std::uint64_t writes_enqueued = 0;
    std::uint64_t cas_reads = 0;
    std::uint64_t cas_writes = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t refs_issued = 0;
    std::uint64_t rfms_issued = 0;
    /** Cycles spent from ALERT stall to RFM completion. */
    std::uint64_t alert_stall_cycles = 0;
    Histogram read_latency{16, 512};

    /** Serialize every counter plus the latency histogram. */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);
};

/** FR-FCFS memory controller for one sub-channel. */
class Controller
{
  public:
    /**
     * @param device The sub-channel this controller drives.
     * @param map Address map (shared across controllers).
     * @param params Tuning parameters.
     * @param client Completion sink for reads (may be nullptr for
     *        fire-and-forget drivers).
     */
    Controller(SubChannel &device, const AddressMap &map,
               const ControllerParams &params, MemClient *client);

    /** Can another read be accepted right now? */
    bool canAcceptRead() const { return !read_q_.full(); }

    /** Can another write be accepted right now? */
    bool canAcceptWrite() const { return !write_q_.full(); }

    /**
     * Enqueue a request (coordinates are decoded here).
     * @return false if the corresponding queue is full.
     */
    bool enqueue(Request req, Cycle now);

    /** Advance the controller to cycle @p now (issues <= 1 command). */
    void tick(Cycle now);

    /**
     * Next-event contract: the earliest cycle at which tick() can do
     * anything.  A tick strictly before this cycle is a provable
     * no-op (it early-returns), which is what lets the event engine
     * skip ahead.  Always finite: normal operation re-arms it with
     * next_ref_at_, so skips never outrun the refresh scheduler.
     * Serialized with the controller, so checkpoint/resume preserves
     * the contract across engines.
     */
    Cycle nextWakeAt() const { return next_wake_; }

    /** True when no requests are queued. */
    bool idle() const { return read_q_.empty() && write_q_.empty(); }

    /** Current read-queue occupancy. */
    std::size_t readQueueDepth() const { return read_q_.size(); }

    /** Current write-queue occupancy. */
    std::size_t writeQueueDepth() const { return write_q_.size(); }

    const ControllerStats &stats() const { return stats_; }

    SubChannel &device() { return device_; }

    /** Measured row-buffer hit rate over all CAS operations. */
    double rowBufferHitRate() const;

    /**
     * Snapshot queues, maintenance state, per-bank PREcu decisions,
     * and statistics.  The driven SubChannel snapshots separately.
     */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

  private:
    enum class MaintState
    {
        kNormal,
        kAlertWindow,
        kAlertDrain,
        kRfmBusy,
        kRefDrain,
        kRefBusy,
    };

    void consider(Cycle ready);
    bool allBanksClosed() const;
    /** Try to close one open bank (maintenance drains). @return issued. */
    bool drainOnePre(Cycle now);
    void scheduleOne(Cycle now);
    bool tryCas(RequestQueue &queue, bool is_write, Cycle now);
    bool tryActs(Cycle now, bool serve_writes);
    bool tryPres(Cycle now);
    void issueCas(RequestQueue &queue, std::int32_t slot,
                  bool is_write, Cycle now);
    /** ACT @p row on @p bank and take the PREcu decision for it. */
    void issueAct(unsigned bank, std::uint32_t row, Cycle now);

    // Reference scheduler (ControllerParams::naive_scan): the old
    // full-queue scans over the global arrival list, kept as the
    // ground truth the property test compares the indexed walks to.
    void scheduleOneNaive(Cycle now);
    bool tryCasNaive(RequestQueue &queue, bool is_write, Cycle now);
    bool tryActsNaive(Cycle now, bool serve_writes);
    bool tryPresNaive(Cycle now);

    SubChannel &device_;
    const AddressMap &map_;
    // Construction-time config; a load only reads it to bound the
    // restored queue occupancy, save has nothing to write.
    ControllerParams params_; // mopac-lint: allow(serial-drift)
    // Wired by the System at construction, not part of the snapshot.
    MemClient *client_; // mopac-lint: allow(serial-drift)

    RequestQueue read_q_;
    RequestQueue write_q_;

    MaintState state_ = MaintState::kNormal;
    Cycle stall_at_ = 0;
    Cycle busy_until_ = 0;
    Cycle next_ref_at_;
    Cycle next_wake_ = 0;
    bool drain_mode_ = false;

    /** Per-bank: pending counter-update (PREcu) decision. */
    std::vector<std::uint8_t> cu_pending_;
    /** Per-bank: the request that opened the current row was a miss. */
    std::vector<std::uint8_t> act_claimed_;

    // Scratch, derived entirely from the queues and bank state, so
    // none of it is checkpointed.  The hit-head arrays cache each
    // open bank's oldest row hit so tryCas() never walks a bank list.
    // The per-queue masks ([0] = read queue, [1] = write queue) cache
    // scheduleOne's mark() summaries; an entry is valid while the
    // bank's bit in that queue's staleMask() is clear (see
    // scheduleOne for the invariant).  Only open banks are summarized
    // and every ACT goes through issueAct(), which marks the bank
    // stale in both queues; a restored queue starts all-stale.
    std::uint64_t hit_mask_ = 0;      // mopac-lint: allow(serial-drift)
    std::uint64_t conflict_mask_ = 0; // mopac-lint: allow(serial-drift)
    std::array<std::int32_t, 64> hit_head_read_{};  // mopac-lint: allow(serial-drift)
    std::array<std::int32_t, 64> hit_head_write_{}; // mopac-lint: allow(serial-drift)
    std::array<std::uint64_t, 2> hit_q_mask_{};      // mopac-lint: allow(serial-drift)
    std::array<std::uint64_t, 2> conflict_q_mask_{}; // mopac-lint: allow(serial-drift)

    ControllerStats stats_;
};

} // namespace mopac

#endif // MOPAC_MC_CONTROLLER_HH
