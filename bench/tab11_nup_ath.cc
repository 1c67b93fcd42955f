/**
 * @file
 * Reproduces Table 11: ATH* of MoPAC-D with uniform sampling versus
 * the Non-Uniform-Probability (NUP) Markov-chain derivation (§8.2).
 */

#include "analysis/security.hh"
#include "bench_util.hh"
#include "common/format.hh"

namespace mopac::bench
{
namespace
{

void
render(SlowdownLab &, std::ostream &os)
{
    TextTable table(
        "Table 11: ATH* of MoPAC-D and MoPAC-D with NUP");
    table.header({"T_RH (p)", "MoPAC-D (Uniform)", "MoPAC-D (NUP)",
                  "paper (uniform / NUP)"});
    for (const PaperRef &ref : {PaperRef{1000, "336 / 288"},
                                PaperRef{500, "152 / 136"},
                                PaperRef{250, "60 / 56"}}) {
        const MopacDDerived uni = deriveMopacD(ref.trh);
        const MopacDDerived nup =
            deriveMopacD(ref.trh, 32, false, true);
        table.row({format("{} (p=1/{})", ref.trh,
                          1u << uni.log2_inv_p),
                   std::to_string(uni.ath_star),
                   std::to_string(nup.ath_star), ref.paper});
    }
    table.note("NUP samples zero-count rows at p/2; the Markov chain "
               "of Figure 16 run for ATH steps yields C = 18/17/14 "
               "(Eq. 9), lowering ATH* below the uniform values.");
    table.print(os);
}

} // namespace

extern const Exhibit tab11_nup_ath{"tab11_nup_ath", nullptr, render};

} // namespace mopac::bench
