/**
 * @file
 * Null mitigation engine (unprotected baseline).
 */

#ifndef MOPAC_MITIGATION_NONE_HH
#define MOPAC_MITIGATION_NONE_HH

#include "dram/mitigator.hh"

namespace mopac
{

/**
 * Baseline engine: no tracking, no counter updates, no ALERTs.
 * The security checker still records ground-truth exposure, which is
 * how tests demonstrate that the baseline is, in fact, hammerable.
 */
class NoMitigation : public Mitigator
{
  public:
    std::string name() const override { return "none"; }

    bool
    selectForUpdate(unsigned, std::uint32_t, Cycle) override
    {
        return false;
    }

    void onActivate(unsigned, std::uint32_t, Cycle) override {}
    void onPrechargeUpdate(unsigned, std::uint32_t, Cycle) override {}
    void onRefreshSweep(std::uint32_t, std::uint32_t) override {}
    void onRefresh(Cycle) override {}
    void onRfm(Cycle) override {}
    void onNeighborRefresh(unsigned, std::uint32_t, unsigned) override {}

    const EngineStats &engineStats() const override { return stats_; }

    void saveState(Serializer &ser) const override { transfer(*this, ser); }
    void loadState(Deserializer &des) override { transfer(*this, des); }

    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        EngineStats::transfer(self.stats_, ar);
    }

  private:
    EngineStats stats_;
};

} // namespace mopac

#endif // MOPAC_MITIGATION_NONE_HH
