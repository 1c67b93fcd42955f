/**
 * @file
 * Full-system simulator: cores -> controllers -> DRAM sub-channels
 * with the configured Rowhammer mitigation attached.
 */

#ifndef MOPAC_SIM_SYSTEM_HH
#define MOPAC_SIM_SYSTEM_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "core/cpu.hh"
#include "dram/device.hh"
#include "mc/controller.hh"
#include "mc/mapping.hh"
#include "sim/config.hh"

namespace mopac
{


/** Aggregate result of one simulation run. */
struct RunResult
{
    /** Per-core IPC over the measured interval. */
    std::vector<double> ipcs;
    /** Total simulated cycles. */
    Cycle cycles = 0;
    /** The run hit the safety cycle bound before finishing. */
    bool timed_out = false;

    // Memory-system aggregates (whole run, both sub-channels).
    std::uint64_t acts = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t refs = 0;
    std::uint64_t rfms = 0;
    std::uint64_t alerts = 0;
    double rbhr = 0.0;
    double apri = 0.0;
    double avg_read_latency_ns = 0.0;

    // Security ground truth.
    std::uint32_t max_unmitigated = 0;
    std::uint64_t violations = 0;

    /** Faults that fired (0 unless a FaultPlan is active). */
    std::uint64_t faults_injected = 0;

    // Engine aggregates.
    std::uint64_t counter_updates = 0;
    std::uint64_t srq_insertions = 0;
    std::uint64_t mitigations = 0;
    std::uint64_t ref_drains = 0;

    // Epoch stats (when enabled).
    double act64 = 0.0;
    double act200 = 0.0;
    std::uint64_t epochs = 0;

    /** Mean IPC across cores. */
    double meanIpc() const;
};

/**
 * Paper-style slowdown of @p test relative to @p base on the same
 * workload: 1 - mean_i(IPC_test,i / IPC_base,i).  In rate mode the
 * single-core IPC-alone terms of weighted speedup cancel, so this is
 * exactly the weighted-speedup degradation the paper reports.
 */
double weightedSlowdown(const RunResult &base, const RunResult &test);

/** The simulated system. */
class System : public RequestSink
{
  public:
    /**
     * @param cfg Configuration.
     * @param traces One trace per core (not owned; may be empty for
     *        memory-only / attack studies, in which case run() is
     *        unavailable and AttackRunner drives the controllers).
     */
    System(const SystemConfig &cfg, std::vector<TraceSource *> traces);
    ~System() override;

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run to completion and collect results. */
    RunResult run();

    /**
     * Advance the run loop until the workload completes, the safety
     * cycle bound trips, or cycle @p stop_at is reached -- whichever
     * comes first.  Repeated calls continue where the previous one
     * paused, and N calls produce the bit-identical execution of one
     * uninterrupted run (the loop state lives in members).  A pause
     * boundary is a quiesced point for a snapshot (transfer()).
     *
     * @return true when the run is finished (complete or timed out);
     *         false when it merely paused at @p stop_at.
     */
    bool runTo(Cycle stop_at);

    /**
     * Finalize a finished run (fold the trailing partial epoch) and
     * collect results.  Call exactly once, after runTo() returns true.
     */
    RunResult finishRun();

    /** Current run-loop cycle (next cycle to simulate). */
    Cycle runCycle() const { return now_; }

    /** Aggregate statistics as of cycle @p now. */
    RunResult collectStats(Cycle now) const;

    /**
     * Register every component statistic (per sub-channel command
     * counts, controller service counts, engine counters, security
     * oracle) under dotted names in @p registry.  The registry holds
     * references, so dump after run() for final values.
     */
    void registerStats(StatRegistry &registry) const;

    // RequestSink: route by sub-channel.
    bool trySend(const Request &req, Cycle now) override;

    const SystemConfig &config() const { return cfg_; }
    const AddressMap &addressMap() const { return map_; }
    unsigned numSubchannels() const
    {
        return static_cast<unsigned>(subch_.size());
    }
    SubChannel &subchannel(unsigned i) { return *subch_.at(i); }
    Controller &controller(unsigned i) { return *controllers_.at(i); }
    Mitigator &engine(unsigned i) { return *engines_.at(i); }
    Cpu &cpu() { return *cpu_; }

    /** Total faults fired so far across all sub-channels. */
    std::uint64_t faultsInjected() const;

    /**
     * Snapshot the whole system at a quiesced run-loop boundary:
     * every sub-channel, fault injector, mitigation engine, and
     * controller, the cores, and the run-loop state itself.  Trace
     * sources are not owned by the System and snapshot separately
     * (the checkpoint orchestrator keeps the order).  A load goes
     * into a freshly constructed System with the identical
     * configuration and throws SerializeError on any shape or engine
     * mismatch.
     */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

  private:
    /** Watchdog trip: panic with a command-trace tail. */
    [[noreturn]] void reportStall(Cycle now,
                                  std::uint64_t retired) const;

    /** Hard abort requested: throw AbortError with a command tail. */
    [[noreturn]] void reportAbort(Cycle now) const;

    /** Safety bound on simulated cycles for run() / runTo(). */
    std::uint64_t maxCycles() const;

    /** Sum of retired instructions across all cores. */
    std::uint64_t totalRetired() const;

    /**
     * Earliest wakeup across every tick source (CPU self-event,
     * controllers, watchdog, abort poll).  Called only on cycles
     * where the CPU made no progress -- an active CPU would wake at
     * now_ and forbid any skip, so the run loop skips the computation
     * entirely in that case.  A direct min over the handful of
     * sources: the run loop folds wakeups, it never pops a queue.
     */
    Cycle nextEventCycle(Cycle mc_next) const;

    SystemConfig cfg_;
    // Derived from cfg_ at construction; the snapshot header's config
    // hash already guarantees a restored System recomputes the same
    // values, so serializing them would only duplicate the check.
    TimingSet normal_; // mopac-lint: allow(serial-drift)
    TimingSet cu_;     // mopac-lint: allow(serial-drift)
    AddressMap map_;   // mopac-lint: allow(serial-drift)
    std::vector<std::unique_ptr<SubChannel>> subch_;
    std::vector<std::unique_ptr<FaultInjector>> faults_;
    std::vector<std::unique_ptr<Mitigator>> engines_;
    std::vector<std::unique_ptr<Controller>> controllers_;
    std::unique_ptr<Cpu> cpu_;

    // Run-loop state, hoisted to members so the loop can pause at an
    // arbitrary cycle (checkpoints) and resume bit-identically.
    Cycle now_ = 0;
    bool timed_out_ = false;
    std::vector<std::uint8_t> measuring_;
    std::uint64_t wd_last_retired_ = 0;
    Cycle wd_last_progress_ = 0;
};

} // namespace mopac

#endif // MOPAC_SIM_SYSTEM_HH
