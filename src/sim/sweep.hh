/**
 * @file
 * Sweep points and their expansion from a declarative spec.
 *
 * A sweep is a grid of (config x workload) cells.  Each cell becomes
 * one self-contained ExperimentPoint whose seed is derived in counter
 * mode from the sweep's master seed (Rng::streamSeed), so the stream a
 * point consumes depends only on (master_seed, stream id) -- never on
 * thread count, scheduling order, or which other points exist.  That
 * is what makes `--jobs 1` and `--jobs N` produce bit-identical
 * per-point results.
 */

#ifndef MOPAC_SIM_SWEEP_HH
#define MOPAC_SIM_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"

namespace mopac
{

/** One independent cell of a sweep, ready to execute. */
struct ExperimentPoint
{
    /** Dense id within the sweep; also the replay handle. */
    std::uint64_t point_id = 0;
    /** Human-readable config label (e.g. "mopac-c@500"). */
    std::string config_label;
    /** Table-4 workload name or "mixN". */
    std::string workload;
    /** Full configuration; cfg.seed is already the point's stream. */
    SystemConfig cfg;
};

/** A configuration with a display label. */
struct NamedConfig
{
    std::string label;
    SystemConfig cfg;
};

/** Declarative sweep: configs x workloads. */
struct SweepSpec
{
    /**
     * How per-point seeds are derived from master_seed.
     *
     * kPerWorkload gives every config the *same* stream on a given
     * workload (stream id = workload index), which keeps paired
     * baseline/test runs on identical traces -- required for the
     * paper's slowdown methodology.  kPerPoint gives every cell its
     * own stream (stream id = point id) for independent-sample
     * studies.
     */
    enum class SeedPolicy
    {
        kPerWorkload,
        kPerPoint,
    };

    std::uint64_t master_seed = 12345;
    SeedPolicy seed_policy = SeedPolicy::kPerWorkload;
    std::vector<NamedConfig> configs;
    std::vector<std::string> workloads;

    /**
     * Expand to the full point list, workload-major (all configs of
     * workload 0, then workload 1, ...), point_id dense from 0.
     */
    std::vector<ExperimentPoint> expand() const;
};

/**
 * Deterministic cache / dedup key for a configuration: every field
 * that can change simulation output is folded in.  Two configs with
 * equal signatures replay identical runs on the same workload.
 */
std::string configSignature(const SystemConfig &cfg);

} // namespace mopac

#endif // MOPAC_SIM_SWEEP_HH
