/**
 * @file
 * Synthetic trace generators.
 *
 * Two generator shapes cover every workload in Table 4:
 *
 *  - BurstTraceSource: picks a (sub-channel, bank, row) target --
 *    optionally from a skewed hot set -- and issues a geometrically
 *    distributed burst of consecutive lines within that row.  Burst
 *    length controls row-buffer locality; the dependent-read fraction
 *    controls latency sensitivity; the hot set reproduces the
 *    ACT-64+/ACT-200+ skew that drives counter/ABO pressure.
 *
 *  - StreamTraceSource: sequential line addresses through the core's
 *    region (STREAM kernels), whose locality emerges from the MOP
 *    mapping exactly as it would for real streaming code.
 *
 * Instruction gaps are exponential with mean 1000/MPKI, so the miss
 * rate matches the calibration target in expectation.
 *
 * Cores in rate mode share nothing: core i generates within rows
 * [i, i + rows_per_core) of every bank, mirroring how a rate-mode
 * physical allocation stripes distinct pages to the same banks.
 */

#ifndef MOPAC_WORKLOAD_SYNTH_HH
#define MOPAC_WORKLOAD_SYNTH_HH

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/trace.hh"
#include "mc/mapping.hh"
#include "workload/spec.hh"

namespace mopac
{

/** Generic hot/cold burst generator (SPEC-like workloads). */
class BurstTraceSource : public TraceSource
{
  public:
    /**
     * @param spec Behavioural knobs.
     * @param map Address map used to compose line addresses.
     * @param core_id This core's index (selects its row slice).
     * @param num_cores Total cores (row space is divided evenly).
     * @param seed Private RNG seed.
     */
    BurstTraceSource(const WorkloadSpec &spec, const AddressMap &map,
                     unsigned core_id, unsigned num_cores,
                     std::uint64_t seed);

    TraceRecord next() override;

    void saveState(Serializer &ser) const override { transfer(*this, ser); }
    void loadState(Deserializer &des) override { transfer(*this, des); }

    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

  private:
    void startBurst();
    std::uint32_t sampleGap();

    // Workload shape, fixed once the constructor clamps it; the
    // snapshot config hash pins it across a resume.
    WorkloadSpec spec_; // mopac-lint: allow(serial-drift)
    const AddressMap &map_;
    Rng rng_;

    std::uint32_t row_base_;
    std::uint32_t footprint_;
    std::uint32_t lines_per_row_;
    /** Remaining misses in the current dispatch cluster. */
    unsigned cluster_left_ = 0;

    // Current burst.
    DramCoord coord_{};
    unsigned burst_left_ = 0;
};

/** Sequential streaming generator (STREAM kernels). */
class StreamTraceSource : public TraceSource
{
  public:
    StreamTraceSource(const WorkloadSpec &spec, const AddressMap &map,
                      unsigned core_id, unsigned num_cores,
                      std::uint64_t seed);

    TraceRecord next() override;

    void saveState(Serializer &ser) const override { transfer(*this, ser); }
    void loadState(Deserializer &des) override { transfer(*this, des); }

    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

  private:
    // Workload shape, fixed once the constructor clamps it; the
    // snapshot config hash pins it across a resume.
    WorkloadSpec spec_; // mopac-lint: allow(serial-drift)
    const AddressMap &map_;
    Rng rng_;

    Addr region_base_;
    Addr region_lines_;
    Addr pos_ = 0;
};

/** Build the generator matching @p spec for one core. */
std::unique_ptr<TraceSource>
makeTraceSource(const WorkloadSpec &spec, const AddressMap &map,
                unsigned core_id, unsigned num_cores,
                std::uint64_t seed);

/**
 * Build the per-core trace set for a named workload: rate mode (the
 * same spec on every core) for single workloads, per-core specs for
 * the "mixN" entries.
 */
std::vector<std::unique_ptr<TraceSource>>
makeWorkloadTraces(const std::string &name, const AddressMap &map,
                   unsigned num_cores, std::uint64_t seed);

} // namespace mopac

#endif // MOPAC_WORKLOAD_SYNTH_HH
