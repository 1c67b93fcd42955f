/**
 * @file
 * Related-work in-DRAM trackers used as comparison points (paper §9):
 *
 *  - MintTracker: the MINT minimalist tracker [32] -- one uniformly
 *    sampled activation per refresh interval is mitigated at REF.
 *  - PrideTracker: PrIDE [12] -- PARA-style sampling into a small
 *    per-bank FIFO drained by one mitigation per REF.
 *  - TrrTracker: a DDR4-era Target-Row-Refresh-style frequency
 *    tracker (Misra-Gries summary), mitigating its hottest entry
 *    under REF.  Included to demonstrate (in tests / examples) that
 *    such trackers are bypassable by many-sided patterns, which is
 *    the paper's motivation for principled designs.
 *
 * All three mitigate transparently under REF and never assert ALERT.
 */

#ifndef MOPAC_MITIGATION_RELATED_HH
#define MOPAC_MITIGATION_RELATED_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "dram/mitigator.hh"

namespace mopac
{

/** Common scaffolding for REF-time trackers. */
class RefTimeTrackerBase : public Mitigator
{
  public:
    explicit RefTimeTrackerBase(DramBackend &backend);

    bool
    selectForUpdate(unsigned, std::uint32_t, Cycle) override
    {
        return false;
    }

    void onPrechargeUpdate(unsigned, std::uint32_t, Cycle) override {}
    void onRefreshSweep(std::uint32_t, std::uint32_t) override {}
    void onRfm(Cycle) override {}
    void onNeighborRefresh(unsigned, std::uint32_t, unsigned) override {}

    const EngineStats &engineStats() const override { return stats_; }

  protected:
    void mitigateRow(unsigned bank, std::uint32_t row);

    DramBackend &backend_;
    unsigned banks_;
    EngineStats stats_;
};

/** MINT: reservoir-sample one ACT per bank per REF interval. */
class MintTracker : public RefTimeTrackerBase
{
  public:
    /** Parameters. */
    struct Params
    {
        /** Aggressor mitigations allowed per REF per bank. */
        unsigned mitigations_per_ref = 1;
        std::uint64_t seed = 1;
    };

    MintTracker(DramBackend &backend, const Params &params);

    std::string name() const override { return "mint"; }

    void onActivate(unsigned bank, std::uint32_t row, Cycle now) override;
    void onRefresh(Cycle now) override;

    void saveState(Serializer &ser) const override { transfer(*this, ser); }
    void loadState(Deserializer &des) override { transfer(*this, des); }

    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

  private:
    struct BankState
    {
        std::uint32_t candidate = kInvalid32;
        std::uint32_t acts = 0;
        /** Re-seeded by the constructor from Params::seed. */
        Rng rng;
    };

    Params params_;
    std::vector<BankState> bank_state_;
};

/** PrIDE: PARA-sampled per-bank FIFO, drained one entry per REF. */
class PrideTracker : public RefTimeTrackerBase
{
  public:
    /** Parameters. */
    struct Params
    {
        /** Sampling probability denominator (p = 1/window). */
        unsigned window = 84;
        /** FIFO capacity per bank. */
        unsigned fifo_capacity = 4;
        /** Aggressor mitigations allowed per REF per bank. */
        unsigned mitigations_per_ref = 1;
        std::uint64_t seed = 1;
    };

    PrideTracker(DramBackend &backend, const Params &params);

    std::string name() const override { return "pride"; }

    void onActivate(unsigned bank, std::uint32_t row, Cycle now) override;
    void onRefresh(Cycle now) override;

    void saveState(Serializer &ser) const override { transfer(*this, ser); }
    void loadState(Deserializer &des) override { transfer(*this, des); }

    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

  private:
    struct BankState
    {
        std::vector<std::uint32_t> fifo;
        /** Re-seeded by the constructor from Params::seed. */
        Rng rng;
    };

    // Construction-time config; a load only reads it to bound the
    // restored FIFO occupancy, save has nothing to write.
    Params params_; // mopac-lint: allow(serial-drift)
    std::vector<BankState> bank_state_;
};

/** DDR4-era TRR-style hot-row tracker (bypassable; for demonstration). */
class TrrTracker : public RefTimeTrackerBase
{
  public:
    /** Parameters. */
    struct Params
    {
        /** Tracked entries per bank (DDR4 TRR used 1-32). */
        unsigned entries = 16;
        /** Mitigate the hottest entry every N REFs. */
        unsigned refs_per_mitigation = 1;
    };

    TrrTracker(DramBackend &backend, const Params &params);

    std::string name() const override { return "trr"; }

    void onActivate(unsigned bank, std::uint32_t row, Cycle now) override;
    void onRefresh(Cycle now) override;

    void saveState(Serializer &ser) const override { transfer(*this, ser); }
    void loadState(Deserializer &des) override { transfer(*this, des); }

    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

  private:
    struct Entry
    {
        std::uint32_t row;
        std::uint32_t count;
    };

    struct BankState
    {
        std::vector<Entry> table;
        unsigned refs_seen = 0;
    };

    // Construction-time config; a load only reads it to bound the
    // restored table occupancy, save has nothing to write.
    Params params_; // mopac-lint: allow(serial-drift)
    std::vector<BankState> bank_state_;
};

} // namespace mopac

#endif // MOPAC_MITIGATION_RELATED_HH
