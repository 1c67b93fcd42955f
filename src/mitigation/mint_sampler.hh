/**
 * @file
 * MINT window sampler (Qureshi, Qazi & Jaleel, MICRO 2024).
 *
 * MINT divides the activation stream into fixed windows of 1/p
 * activations and selects exactly one activation per window, at a
 * position drawn uniformly at the start of the window.  Unlike PARA's
 * independent coin flips, this guarantees that after a selection the
 * next selection cannot occur for at least one activation and at most
 * 2/p - 1 activations -- the property footnote 6 of the MoPAC paper
 * relies on: once the SRQ fills and an ABO triggers, the attacker
 * cannot land guaranteed-unsampled activations.
 *
 * Per that footnote, the selected row is reported (for SRQ insertion)
 * only when the window closes.
 */

#ifndef MOPAC_MITIGATION_MINT_SAMPLER_HH
#define MOPAC_MITIGATION_MINT_SAMPLER_HH

#include <cstdint>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/types.hh"

namespace mopac
{

/** One per-(chip, bank) MINT sampling window. */
class MintSampler
{
  public:
    /** Outcome of feeding one activation to the sampler. */
    struct Result
    {
        /** This activation is the window's sampled position. */
        bool at_selection = false;
        /** This activation closed the window. */
        bool window_closed = false;
        /** Row emitted at window close (kInvalid32 if none). */
        std::uint32_t emitted_row = kInvalid32;
    };

    /**
     * @param window Window length in activations (1/p).
     * @param rng Private random stream.
     */
    MintSampler(unsigned window, Rng rng)
        : window_(window), rng_(rng)
    {
        MOPAC_ASSERT(window_ > 0);
    }

    /**
     * Feed one activation of @p row.
     *
     * @param accept If this activation is the window's sampled
     *        position, record it only when true.  The NUP variant
     *        (paper §8) passes its p/2 acceptance coin here; the
     *        decision must be made at step time because the sampled
     *        position may also close the window.
     */
    Result
    step(std::uint32_t row, bool accept = true)
    {
        if (pos_ == 0) {
            selected_idx_ = static_cast<unsigned>(rng_.below(window_));
            candidate_ = kInvalid32;
        }
        Result res;
        if (pos_ == selected_idx_) {
            res.at_selection = true;
            if (accept) {
                candidate_ = row;
            }
        }
        ++pos_;
        if (pos_ == window_) {
            res.window_closed = true;
            res.emitted_row = candidate_;
            pos_ = 0;
            candidate_ = kInvalid32;
        }
        return res;
    }

    unsigned window() const { return window_; }

    /** Position within the current window (tests). */
    unsigned position() const { return pos_; }

    /**
     * Snapshot the window cursor and private RNG stream; a load
     * throws on a window mismatch.
     */
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        matchU32(ar, self.window_, "MINT sampler window");
        ar.u32(self.pos_);
        ar.u32(self.selected_idx_);
        ar.u32(self.candidate_);
        Rng::transfer(self.rng_, ar);
    }

  private:
    unsigned window_;
    unsigned pos_ = 0;
    unsigned selected_idx_ = 0;
    std::uint32_t candidate_ = kInvalid32;
    Rng rng_;
};

} // namespace mopac

#endif // MOPAC_MITIGATION_MINT_SAMPLER_HH
