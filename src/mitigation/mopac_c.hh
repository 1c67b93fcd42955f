/**
 * @file
 * MoPAC-C: memory-controller-side probabilistic activation counting
 * (paper §5).
 *
 * On each activation the memory controller decides with probability
 * p = 1/2^k whether the row will be closed with PREcu (counter-update
 * precharge, PRAC timings) instead of the normal PRE (baseline
 * timings).  Each PREcu increments the row's counter by 1/p, and the
 * ALERT threshold is lowered to ATH* = C * (1/p) (Table 7) to cover
 * sampling undercount, with C derived from the binomial security
 * analysis of §5.3.
 */

#ifndef MOPAC_MITIGATION_MOPAC_C_HH
#define MOPAC_MITIGATION_MOPAC_C_HH

#include "common/rng.hh"
#include "mitigation/counter_engine.hh"

namespace mopac
{

/** MoPAC-C engine for one sub-channel. */
class MopacCEngine : public CounterEngineBase
{
  public:
    /** Parameters for one sub-channel engine. */
    struct Params
    {
        /** k where the update probability p = 1/2^k. */
        unsigned log2_inv_p;
        /** Revised ALERT threshold ATH* (Table 7). */
        std::uint32_t ath_star;
        /** Eligibility threshold; 0 selects the default ath_star / 2. */
        std::uint32_t eth_star = 0;
        /** RNG seed for the MC-side sampling decisions. */
        std::uint64_t seed = 1;
    };

    MopacCEngine(DramBackend &backend, const Params &params)
        : CounterEngineBase(backend, params.ath_star,
                            params.eth_star
                                ? params.eth_star
                                : std::max<std::uint32_t>(
                                      1, params.ath_star / 2)),
          k_(params.log2_inv_p), rng_(params.seed)
    {
    }

    std::string name() const override { return "mopac-c"; }

    bool
    selectForUpdate(unsigned, std::uint32_t, Cycle) override
    {
        const bool selected = rng_.chancePow2(k_);
        if (selected) {
            ++stats_.selected_acts;
        }
        return selected;
    }

    /** Update probability p. */
    double probability() const { return 1.0 / static_cast<double>(1u << k_); }

    /** Checkpoint base state plus the MC-side sampling RNG. */
    void saveState(Serializer &ser) const override { transfer(*this, ser); }
    void loadState(Deserializer &des) override { transfer(*this, des); }

    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        CounterEngineBase::transfer(self, ar);
        matchU32(ar, self.k_, "MoPAC-C k");
        Rng::transfer(self.rng_, ar);
    }

  protected:
    std::uint32_t
    updateIncrement() const override
    {
        return 1u << k_;
    }

  private:
    unsigned k_;
    Rng rng_;
};

} // namespace mopac

#endif // MOPAC_MITIGATION_MOPAC_C_HH
