/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The threat model (paper §2.1) states the attacker knows the defense
 * algorithm but not the outcome of the random number generator, so all
 * probabilistic decisions in the mitigation engines draw from
 * explicitly seeded generators.  We use xoshiro256** (public domain,
 * Blackman & Vigna) seeded through SplitMix64, which gives fast,
 * high-quality, reproducible streams; every component that randomizes
 * owns its own Rng so experiments are seed-stable regardless of
 * component evaluation order.
 */

#ifndef MOPAC_COMMON_RNG_HH
#define MOPAC_COMMON_RNG_HH

#include <array>
#include <cstdint>

namespace mopac
{

/**
 * xoshiro256** pseudo-random generator with convenience draws.
 *
 * Satisfies the essentials of UniformRandomBitGenerator so it can be
 * used with <random> distributions if ever needed, though the built-in
 * draws below are preferred in simulator code.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Reseed in place. */
    void seed(std::uint64_t seed_value);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    std::uint64_t operator()() { return next(); }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [0, bound) using Lemire's method. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t inRange(std::uint64_t lo, std::uint64_t hi);

    /** Bernoulli trial with success probability p. */
    bool chance(double p);

    /**
     * Bernoulli trial with probability 1 / 2^k, drawn from raw bits
     * (exact; this is the hardware-friendly draw the paper's
     * power-of-two p values imply).
     */
    bool chancePow2(unsigned k);

    /**
     * Fork a statistically independent child stream; used to give each
     * DRAM chip / bank its own stream derived from one experiment seed.
     */
    Rng fork();

    /**
     * Counter-mode stream splitting: the seed of stream @p stream_id
     * under @p master_seed.  For a fixed master seed the map
     * stream_id -> seed is injective (the finalizer is bijective), so
     * no two streams of one sweep can collide; the double SplitMix64
     * finalization decorrelates adjacent masters and adjacent streams.
     * Unlike fork(), the result depends only on the two inputs -- not
     * on how many streams were split before -- so parallel sweeps get
     * identical per-point streams regardless of expansion order.
     */
    static std::uint64_t streamSeed(std::uint64_t master_seed,
                                    std::uint64_t stream_id);

    /** Generator for stream @p stream_id of @p master_seed. */
    static Rng forStream(std::uint64_t master_seed,
                         std::uint64_t stream_id);

    /** Snapshot the stream position (exact xoshiro state). */
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        for (auto &word : self.state_) {
            ar.u64(word);
        }
    }

  private:
    std::array<std::uint64_t, 4> state_;
};

} // namespace mopac

#endif // MOPAC_COMMON_RNG_HH
