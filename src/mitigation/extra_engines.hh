/**
 * @file
 * Additional mitigation engines from the paper's related-work
 * landscape (§9), rounding out the comparison set:
 *
 *  - ParaEngine: classic PARA -- every activation mitigates its
 *    victims inline with probability q, no tracking state at all.
 *    q is derived from the same MTTF budget as MoPAC
 *    (escape = (1-q)^T < epsilon).  The refresh work itself is not
 *    timing-modeled (PARA's cost story is orthogonal to PRAC's);
 *    the engine exists as a security reference point.
 *
 *  - GrapheneTracker: a principled Misra-Gries frequency tracker in
 *    the ProTRR / Graphene / Mithril family (§9.3): any row whose
 *    activation count within the refresh window exceeds the
 *    mitigation threshold is provably tracked, at the cost of
 *    hundreds-to-thousands of SRAM entries per bank -- exactly the
 *    overhead the paper argues pushed industry toward PRAC.
 *
 *  - QpracEngine: a QPRAC-style [43] deterministic PRAC variant that
 *    buffers mitigation candidates in a small per-bank priority
 *    queue and services them opportunistically during REF, falling
 *    back to ABO only when a counter reaches ATH -- trading a little
 *    SRAM for fewer ALERTs than single-entry MOAT.
 */

#ifndef MOPAC_MITIGATION_EXTRA_ENGINES_HH
#define MOPAC_MITIGATION_EXTRA_ENGINES_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "dram/mitigator.hh"
#include "dram/prac.hh"

namespace mopac
{

/** Classic PARA: per-ACT probabilistic inline mitigation. */
class ParaEngine : public Mitigator
{
  public:
    /** Parameters. */
    struct Params
    {
        /** Mitigation probability per activation. */
        double q = 0.01;
        std::uint64_t seed = 1;
    };

    /**
     * The q satisfying (1-q)^trh < epsilon(trh) -- the same failure
     * budget the paper applies to MoPAC (§5.3).
     */
    static double deriveQ(std::uint32_t trh);

    ParaEngine(DramBackend &backend, const Params &params);

    std::string name() const override { return "para"; }

    bool
    selectForUpdate(unsigned, std::uint32_t, Cycle) override
    {
        return false;
    }

    void onActivate(unsigned bank, std::uint32_t row, Cycle now) override;
    void onPrechargeUpdate(unsigned, std::uint32_t, Cycle) override {}
    void onRefreshSweep(std::uint32_t, std::uint32_t) override {}
    void onRefresh(Cycle) override {}
    void onRfm(Cycle) override {}
    void onNeighborRefresh(unsigned, std::uint32_t, unsigned) override {}

    const EngineStats &engineStats() const override { return stats_; }

    void saveState(Serializer &ser) const override { transfer(*this, ser); }
    void loadState(Deserializer &des) override { transfer(*this, des); }

    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

  private:
    DramBackend &backend_;
    Params params_;
    Rng rng_;
    EngineStats stats_;
};

/** Principled Misra-Gries tracker (Graphene / ProTRR family). */
class GrapheneTracker : public Mitigator
{
  public:
    /** Parameters. */
    struct Params
    {
        /** Mitigate a row when its tracked count reaches this. */
        std::uint32_t mitigation_threshold = 250;
        /** Table entries per bank; 0 derives the provable minimum. */
        unsigned entries = 0;
    };

    /**
     * Provable entry count: W / threshold, where W is the worst-case
     * activations per bank per refresh window (tREFW / tRC).  This is
     * the "several hundred / thousand entries" SRAM bill of §2.4.
     */
    static unsigned deriveEntries(std::uint32_t mitigation_threshold);

    GrapheneTracker(DramBackend &backend, const Params &params);

    std::string name() const override { return "graphene"; }

    bool
    selectForUpdate(unsigned, std::uint32_t, Cycle) override
    {
        return false;
    }

    void onActivate(unsigned bank, std::uint32_t row, Cycle now) override;
    void onPrechargeUpdate(unsigned, std::uint32_t, Cycle) override {}
    void onRefreshSweep(std::uint32_t row_begin,
                        std::uint32_t row_end) override;
    void onRefresh(Cycle) override {}
    void onRfm(Cycle) override {}
    void onNeighborRefresh(unsigned, std::uint32_t, unsigned) override {}

    const EngineStats &engineStats() const override { return stats_; }

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
        std::uint32_t spill = 0; // Misra-Gries floor counter
    };

    DramBackend &backend_;
    Params params_;
    std::vector<BankState> bank_state_;
    EngineStats stats_;
};

/** QPRAC-style deterministic PRAC with an opportunistic queue. */
class QpracEngine : public Mitigator
{
  public:
    /** Parameters. */
    struct Params
    {
        /** ALERT threshold (same role as MOAT's ATH). */
        std::uint32_t ath;
        /** Enqueue threshold; 0 selects ath / 2. */
        std::uint32_t eth = 0;
        /** Candidate queue entries per bank. */
        unsigned queue_entries = 4;
        /** Candidates mitigated opportunistically per REF per bank. */
        unsigned mitigations_per_ref = 1;
    };

    QpracEngine(DramBackend &backend, const Params &params);

    std::string name() const override { return "qprac"; }

    bool
    selectForUpdate(unsigned, std::uint32_t, Cycle) override
    {
        // Deterministic PRAC: every precharge updates.
        ++stats_.selected_acts;
        return true;
    }

    void onActivate(unsigned, std::uint32_t, Cycle) override {}
    void onPrechargeUpdate(unsigned bank, std::uint32_t row,
                           Cycle now) override;
    void onRefreshSweep(std::uint32_t row_begin,
                        std::uint32_t row_end) override;
    void onRefresh(Cycle now) override;
    void onRfm(Cycle now) override;
    void onNeighborRefresh(unsigned bank, std::uint32_t row,
                           unsigned chip) override;

    const EngineStats &engineStats() const override { return stats_; }

    void saveState(Serializer &ser) const override { transfer(*this, ser); }
    void loadState(Deserializer &des) override { transfer(*this, des); }

    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

    std::uint32_t counter(unsigned bank, std::uint32_t row) const
    {
        return prac_.get(0, bank, row);
    }

  private:
    struct Candidate
    {
        std::uint32_t row;
        std::uint32_t count;
    };

    struct BankState
    {
        std::vector<Candidate> queue;
    };

    void observe(unsigned bank, std::uint32_t row,
                 std::uint32_t value);
    void mitigateTop(unsigned bank);

    DramBackend &backend_;
    Params params_;
    std::uint32_t eth_;
    PracCounters prac_;
    std::vector<BankState> bank_state_;
    EngineStats stats_;
};

} // namespace mopac

#endif // MOPAC_MITIGATION_EXTRA_ENGINES_HH
