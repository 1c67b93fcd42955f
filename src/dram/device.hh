/**
 * @file
 * DRAM sub-channel device model.
 *
 * A SubChannel bundles the per-bank timing machines, the shared data
 * bus, the sub-channel ACT constraints (tRRD, tFAW), the refresh
 * sweep, the ALERT/ABO pin, the ground-truth security checker, and
 * the attached Rowhammer mitigation engine.  The memory controller
 * drives it by executing commands; the device updates state and
 * forwards events to the engine.
 */

#ifndef MOPAC_DRAM_DEVICE_HH
#define MOPAC_DRAM_DEVICE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/checker.hh"
#include "dram/command.hh"
#include "dram/geometry.hh"
#include "dram/mitigator.hh"
#include "dram/timing.hh"

namespace mopac
{

/** Aggregate command / protocol statistics for one sub-channel. */
struct SubChannelStats
{
    std::uint64_t acts = 0;
    std::uint64_t pres = 0;
    std::uint64_t precus = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t refs = 0;
    std::uint64_t rfms = 0;
    std::uint64_t alerts = 0;
    std::uint64_t victim_refreshes = 0;
};

/** One entry of the always-on command-trace ring (watchdog dumps). */
struct CommandRecord
{
    DramCommand cmd = DramCommand::kAct;
    unsigned bank = 0;
    std::uint32_t row = 0;
    Cycle at = 0;
};

/** One DRAM sub-channel (32 banks, sub-channel-wide ALERT). */
class SubChannel : public DramBackend
{
  public:
    /**
     * @param geo Memory organization.
     * @param normal Timing set for regular commands.
     * @param cu Timing set for counter-update precharges.
     * @param trh Rowhammer threshold for the security checker.
     */
    SubChannel(const Geometry &geo, const TimingSet *normal,
               const TimingSet *cu, std::uint32_t trh);

    /** Attach the mitigation engine (must be called before use). */
    void setMitigator(Mitigator *engine);

    Mitigator *mitigator() { return engine_; }

    /**
     * Attach a fault injector (optional; nullptr = fault-free).  The
     * injector is owned by the System, one per sub-channel.
     */
    void setFaults(FaultInjector *faults) { faults_ = faults; }

    BankArray &banks() { return banks_; }
    const BankArray &banks() const { return banks_; }
    unsigned numBanks() const { return banks_.size(); }

    /** Earliest ACT issue cycle from sub-channel constraints. */
    Cycle actAllowedAt() const;

    /** Earliest RD issue cycle from data-bus occupancy. */
    Cycle readBusAllowedAt() const;

    /** Earliest WR issue cycle from data-bus occupancy. */
    Cycle writeBusAllowedAt() const;

    /** Execute ACT. */
    void cmdAct(Cycle now, unsigned bank, std::uint32_t row);

    /** Execute RD. @return Cycle the data burst completes. */
    Cycle cmdRead(Cycle now, unsigned bank);

    /** Execute WR. @return Cycle the burst completes. */
    Cycle cmdWrite(Cycle now, unsigned bank);

    /** Execute PRE / PREcu. */
    void cmdPre(Cycle now, unsigned bank, bool counter_update);

    /** Execute REF (all banks must be precharged). */
    void cmdRef(Cycle now);

    /** Execute RFM servicing the ABO (all banks precharged). */
    void cmdRfm(Cycle now);

    /** Is the ALERT pin currently asserted? */
    bool alertAsserted() const { return alert_asserted_; }

    /** Cycle at which the current ALERT was asserted. */
    Cycle alertSince() const { return alert_since_; }

    // DramBackend interface (called by the engine).
    void requestAlert() override;
    void victimRefresh(unsigned bank, std::uint32_t row,
                       unsigned chip) override;
    const Geometry &geometry() const override { return geo_; }
    FaultInjector *faults() override { return faults_; }
    Cycle now() const override { return now_; }

    /**
     * The last K executed commands, oldest first (bounded by the ring
     * capacity).  Fuel for the forward-progress watchdog's diagnostic.
     */
    std::vector<CommandRecord> commandTail(unsigned k) const;

    SecurityChecker &checker() { return checker_; }
    const SecurityChecker &checker() const { return checker_; }

    const SubChannelStats &stats() const { return stats_; }

    const TimingSet &normalTiming() const { return *normal_; }

    /**
     * Snapshot every mutable field of the sub-channel: bank timing
     * machines, ACT/FAW windows, bus occupancy, ALERT latch, refresh
     * sweep position, command ring, statistics, and the security
     * oracle.  The attached engine and fault injector snapshot
     * separately (the System orchestrates the order).
     */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

  private:
    void assertAllClosed(const char *what) const;

    // Geometry is fixed at construction; the engine and fault
    // injector are owned and serialized by the System, which re-wires
    // the pointers before a snapshot loads.
    Geometry geo_;                    // mopac-lint: allow(serial-drift)
    const TimingSet *normal_;
    const TimingSet *cu_;
    BankArray banks_;
    SecurityChecker checker_;
    Mitigator *engine_ = nullptr;     // mopac-lint: allow(serial-drift)
    FaultInjector *faults_ = nullptr; // mopac-lint: allow(serial-drift)

    // Sub-channel ACT constraints.
    Cycle last_act_ = 0;
    std::uint64_t act_count_ = 0;
    std::array<Cycle, 4> faw_window_{};
    unsigned faw_idx_ = 0;

    // Shared data bus.
    Cycle bus_free_at_ = 0;

    // ALERT state.
    bool alert_asserted_ = false;
    bool alert_pending_ = false;
    Cycle alert_since_ = 0;
    std::uint64_t acts_since_rfm_ = 0;

    // Refresh sweep position (group index).
    std::uint32_t sweep_row_ = 0;

    // Timestamp of the command currently executing (for backend calls).
    Cycle now_ = 0;

    // Always-on command-trace ring (fixed cost, no heap churn).
    static constexpr unsigned kCmdRingCapacity = 64;
    std::array<CommandRecord, kCmdRingCapacity> cmd_ring_{};
    std::uint64_t cmd_ring_count_ = 0;

    void
    record(DramCommand cmd, unsigned bank, std::uint32_t row, Cycle at)
    {
        cmd_ring_[cmd_ring_count_ % kCmdRingCapacity] = {cmd, bank,
                                                         row, at};
        ++cmd_ring_count_;
    }

    SubChannelStats stats_;
};

} // namespace mopac

#endif // MOPAC_DRAM_DEVICE_HH
