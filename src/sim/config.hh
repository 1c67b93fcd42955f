/**
 * @file
 * Full-system configuration (Table 3 defaults).
 */

#ifndef MOPAC_SIM_CONFIG_HH
#define MOPAC_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "core/core.hh"
#include "dram/geometry.hh"
#include "mc/controller.hh"
#include "mitigation/mopac_d.hh"
#include "sim/faults.hh"

namespace mopac
{

/** Which Rowhammer mitigation guards the DRAM. */
enum class MitigationKind
{
    kNone,     ///< Unprotected baseline (base timings).
    kPracMoat, ///< Deterministic PRAC + MOAT (PRAC timings).
    kMopacC,   ///< MoPAC-C (base timings + probabilistic PREcu).
    kMopacD,   ///< MoPAC-D (base timings, in-DRAM SRQ).
    kMint,     ///< MINT tracker mitigating under REF (related work).
    kPride,    ///< PrIDE tracker mitigating under REF (related work).
    kTrr,      ///< DDR4-style TRR (demonstrably breakable).
    kPara,     ///< Classic PARA (probabilistic inline mitigation).
    kGraphene, ///< Principled Misra-Gries tracker (high SRAM).
    kQprac,    ///< QPRAC-style PRAC with an opportunistic queue.
};

/** Printable name of a mitigation kind. */
std::string toString(MitigationKind kind);

/**
 * Which run-loop drives System::runTo().  Both engines produce
 * bit-identical results (tests/sim/test_engine_diff.cc proves it);
 * kEvent skips provably-idle cycles and is the default.  kTick is the
 * cycle-by-cycle loop, the reference that the engine differential
 * tests compare kEvent against; only tests select it.
 */
enum class SimEngine
{
    kTick,  ///< Reference loop: one host iteration per DRAM cycle.
    kEvent, ///< Skip-to-next-event: jump to the earliest wakeup.
};

/**
 * Everything needed to build a System.  Fixed once parsed: a restore
 * reconstructs the System from the same experiment config, so the
 * snapshot never carries it.
 */
// mopac: stateless
struct SystemConfig
{
    Geometry geometry{};
    MitigationKind mitigation = MitigationKind::kNone;
    /** Rowhammer threshold being defended (and checked). */
    std::uint32_t trh = 500;

    // Engine knobs (derived from the security analysis when 0 / -1).
    std::uint32_t ath_override = 0;
    std::uint32_t ath_star_override = 0;
    unsigned srq_capacity = 16;
    std::uint32_t tth = 32;
    int drain_per_ref = -1; ///< -1: Table 8 default.
    bool nup = false;
    bool rowpress = false;
    MopacDEngine::SamplerKind sampler = MopacDEngine::SamplerKind::kMint;

    /**
     * Run-loop engine.  Deliberately excluded from configSignature():
     * the engines are bit-identical, so snapshots and result-store
     * entries written under one engine resume cleanly under the
     * other.
     */
    SimEngine engine = SimEngine::kEvent;

    ControllerParams mc{};
    CoreParams core{};
    unsigned num_cores = 8;
    std::uint64_t insts_per_core = 300000;
    std::uint64_t warmup_insts = 30000;
    std::uint64_t seed = 12345;
    /** Abort guard; 0 selects a generous automatic bound. */
    std::uint64_t max_cycles = 0;

    /**
     * Forward-progress watchdog: if no core retires an instruction
     * for this many cycles, the run stops with a structured SimError
     * carrying a command-trace tail (instead of spinning until the
     * cycle guard).  0 disables.  The default sits far above any
     * legitimate stall (tRFC, an ALERT storm), so fault-free runs
     * never trip it.
     */
    std::uint64_t watchdog_cycles = 2000000;
    /** Commands listed in the watchdog diagnostic (per sub-channel). */
    unsigned watchdog_tail = 16;

    /** Fault-injection schedule (defaults to no faults). */
    FaultPlan faults{};

    /** Track Table 4's per-epoch hot-row statistics. */
    bool track_epoch_stats = false;
    /** Epoch length for those stats; 0 selects tREFW. */
    Cycle epoch_cycles = 0;
    /** Epoch hot-row thresholds (scale with epoch_cycles / tREFW). */
    std::uint32_t epoch_hi1 = 64;
    std::uint32_t epoch_hi2 = 200;
};

/** Convenience factory: defaults plus a mitigation and threshold. */
SystemConfig makeConfig(MitigationKind kind, std::uint32_t trh);

} // namespace mopac

#endif // MOPAC_SIM_CONFIG_HH
