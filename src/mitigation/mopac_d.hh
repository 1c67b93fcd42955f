/**
 * @file
 * MoPAC-D: completely in-DRAM probabilistic activation counting
 * (paper §6), with the Non-Uniform-Probability extension (§8) and the
 * Row-Press extension (Appendix A).
 *
 * Each DRAM chip independently samples activations with a MINT window
 * of 1/p and buffers selected rows in a per-bank Selected Row Queue
 * (SRQ, 16 entries of {row, ACtr, SCtr}).  Counter updates are
 * performed when the SRQ drains: up to five entries per ABO (highest
 * ACtr first) and a configurable number per REF (drain-on-REF,
 * Table 8).  ALERT is requested when an SRQ fills, when an entry's
 * ACtr exceeds the tardiness threshold (TTH = 32), or when a PRAC
 * counter reaches ATH*.  The memory controller runs entirely on
 * baseline timings.
 */

#ifndef MOPAC_MITIGATION_MOPAC_D_HH
#define MOPAC_MITIGATION_MOPAC_D_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "dram/mitigator.hh"
#include "dram/prac.hh"
#include "mitigation/mint_sampler.hh"
#include "mitigation/moat.hh"

namespace mopac
{

/** MoPAC-D engine for one sub-channel. */
class MopacDEngine : public Mitigator
{
  public:
    /** Sampler used for SRQ insertion decisions. */
    enum class SamplerKind
    {
        /** MINT window sampling (secure; the paper's design). */
        kMint,
        /**
         * PARA per-ACT coin flips (footnote 6: insecure with the SRQ,
         * provided for the ablation bench).
         */
        kPara,
    };

    /** Parameters for one sub-channel engine. */
    struct Params
    {
        /** k where the update probability p = 1/2^k. */
        unsigned log2_inv_p;
        /** Revised ALERT threshold ATH* (Table 8). */
        std::uint32_t ath_star;
        /** Eligibility threshold; 0 selects the default ath_star / 2. */
        std::uint32_t eth_star = 0;
        /** SRQ capacity per (chip, bank). */
        unsigned srq_capacity = 16;
        /** Tardiness threshold (max ACTs on a queued row). */
        std::uint32_t tth = 32;
        /** SRQ entries drained per REF per bank (Table 8). */
        unsigned drain_per_ref = 0;
        /** SRQ entries drained per ABO per bank. */
        unsigned drain_per_abo = 5;
        /** Independent DRAM chips (Appendix B). */
        unsigned chips = 4;
        /** Non-uniform probability: sample zero-count rows at p/2. */
        bool nup = false;
        /** Row-Press-aware SCtr scaling (Appendix A). */
        bool rowpress = false;
        /** Insertion sampler (ablation; default MINT). */
        SamplerKind sampler = SamplerKind::kMint;
        /** Seed for all chip RNG streams. */
        std::uint64_t seed = 1;
    };

    MopacDEngine(DramBackend &backend, const Params &params);

    std::string name() const override { return "mopac-d"; }

    bool
    selectForUpdate(unsigned, std::uint32_t, Cycle) override
    {
        // MoPAC-D never uses PREcu: the MC runs baseline timings and
        // all updates happen inside the DRAM during ABO / REF.
        return false;
    }

    void onActivate(unsigned bank, std::uint32_t row, Cycle now) override;
    void onPrechargeUpdate(unsigned bank, std::uint32_t row,
                           Cycle now) override;
    void onPrecharge(unsigned bank, std::uint32_t row, Cycle now,
                     Cycle open_cycles) override;
    void onRefreshSweep(std::uint32_t row_begin,
                        std::uint32_t row_end) override;
    void onRefresh(Cycle now) override;
    void onRfm(Cycle now) override;
    void onNeighborRefresh(unsigned bank, std::uint32_t row,
                           unsigned chip) override;

    const EngineStats &engineStats() const override { return stats_; }

    const Params &params() const { return params_; }

    /** Counter value in one chip (tests / diagnostics). */
    std::uint32_t
    counter(unsigned chip, unsigned bank, std::uint32_t row) const
    {
        return prac_.get(chip, bank, row);
    }

    /** Current SRQ occupancy for one (chip, bank) (tests). */
    std::size_t srqOccupancy(unsigned chip, unsigned bank) const;

    void saveState(Serializer &ser) const override { transfer(*this, ser); }
    void loadState(Deserializer &des) override { transfer(*this, des); }

    /**
     * Snapshot per-chip PRAC copies, every SRQ / sampler / MOAT /
     * RNG, and statistics.
     */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

  private:
    /** One SRQ entry. */
    struct SrqEntry
    {
        std::uint32_t row;
        /** Activations to the row while queued (tardiness). */
        std::uint32_t actr;
        /** Selections of the row while queued (coalesced updates). */
        std::uint32_t sctr;
    };

    /** Per-(chip, bank) state. */
    struct ChipBank
    {
        MintSampler sampler;
        std::vector<SrqEntry> srq;
        /** Insertions that arrived while the SRQ was full. */
        std::vector<std::uint32_t> overflow;
        MoatEntry moat;
        Rng rng;

        ChipBank(unsigned window, Rng sampler_rng, Rng aux_rng)
            : sampler(window, sampler_rng), rng(aux_rng)
        {
        }
    };

    ChipBank &
    state(unsigned chip, unsigned bank)
    {
        return state_[static_cast<std::size_t>(chip) * banks_ + bank];
    }

    void insertSelection(unsigned chip, unsigned bank, std::uint32_t row);
    void applyUpdate(unsigned chip, unsigned bank, const SrqEntry &entry);
    void drain(unsigned chip, unsigned bank, unsigned max_entries,
               bool during_ref);
    void mitigate(unsigned chip, unsigned bank);

    DramBackend &backend_;
    Params params_;
    unsigned banks_;
    std::uint32_t eth_star_;
    PracCounters prac_;
    std::vector<ChipBank> state_;
    EngineStats stats_;
};

} // namespace mopac

#endif // MOPAC_MITIGATION_MOPAC_D_HH
