/**
 * @file
 * Attack harness: drives an AttackPattern into the memory system as
 * fast as the controller admits it, with no CPU in the way -- the
 * setting of the paper's threat model (§2.1) and performance-attack
 * study (§7).
 */

#ifndef MOPAC_SIM_ATTACK_HH
#define MOPAC_SIM_ATTACK_HH

#include "sim/system.hh"
#include "workload/attack.hh"

namespace mopac
{

/** Outcome of one attack run. */
struct AttackResult
{
    Cycle cycles = 0;
    std::uint64_t acts = 0;
    std::uint64_t alerts = 0;
    std::uint64_t rfms = 0;
    std::uint64_t mitigations = 0;
    /** Ground truth: worst unmitigated activation count seen. */
    std::uint32_t max_unmitigated = 0;
    /** Ground truth: activations beyond T_RH (must be 0 if secure). */
    std::uint64_t violations = 0;
    /** Faults fired during the run (0 unless a FaultPlan is active). */
    std::uint64_t faults_injected = 0;
    /** Attack throughput. */
    double acts_per_us = 0.0;
};

/** Runs attack patterns against a configured memory system. */
class AttackRunner
{
  public:
    explicit AttackRunner(const SystemConfig &cfg);

    /**
     * Issue @p pattern for @p duration cycles.
     * @param max_inflight Per-sub-channel read-queue depth target
     *        (enough to keep the banks busy without reordering).
     */
    AttackResult run(AttackPattern &pattern, Cycle duration,
                     unsigned max_inflight = 4);

    System &system() { return system_; }

  private:
    /**
     * The run loop proper.  Under SimEngine::kEvent it jumps over
     * cycles where the pattern head is blocked and every controller
     * sleeps, which the per-cycle kTick loop shows to be no-ops.
     */
    void drive(AttackPattern &pattern, Cycle duration,
               unsigned max_inflight);

    System system_;
};

} // namespace mopac

#endif // MOPAC_SIM_ATTACK_HH
