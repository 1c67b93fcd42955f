/**
 * @file
 * xoshiro256** implementation (Blackman & Vigna, public domain).
 */

#include "rng.hh"

#include "log.hh"

namespace mopac
{

namespace
{

/** SplitMix64 step, used only for seed expansion. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(std::uint64_t seed_value)
{
    std::uint64_t sm = seed_value;
    for (auto &word : state_) {
        word = splitMix64(sm);
    }
    // xoshiro256** must not start from the all-zero state; SplitMix64
    // of any seed cannot produce four zero words, but guard anyway.
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 &&
        state_[3] == 0) {
        state_[0] = 1;
    }
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    MOPAC_ASSERT(bound > 0);
    // Lemire's nearly-divisionless method.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
        const std::uint64_t threshold = (0 - bound) % bound;
        while (lo < threshold) {
            x = next();
            m = static_cast<__uint128_t>(x) * bound;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t
Rng::inRange(std::uint64_t lo, std::uint64_t hi)
{
    MOPAC_ASSERT(lo <= hi);
    return lo + below(hi - lo + 1);
}

bool
Rng::chance(double p)
{
    if (p <= 0.0) {
        return false;
    }
    if (p >= 1.0) {
        return true;
    }
    return uniform() < p;
}

bool
Rng::chancePow2(unsigned k)
{
    MOPAC_ASSERT(k <= 63);
    if (k == 0) {
        return true;
    }
    const std::uint64_t mask = (1ull << k) - 1;
    return (next() & mask) == 0;
}

std::uint64_t
Rng::streamSeed(std::uint64_t master_seed, std::uint64_t stream_id)
{
    // Counter mode: advance a SplitMix64-style state by the stream
    // index, then scramble twice.  Every step is bijective in z, so
    // for one master the streams occupy distinct seeds.
    std::uint64_t z =
        master_seed + 0x9E3779B97F4A7C15ull * (stream_id + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    z = (z ^ (z >> 33)) * 0xFF51AFD7ED558CCDull;
    z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53ull;
    return z ^ (z >> 33);
}

Rng
Rng::forStream(std::uint64_t master_seed, std::uint64_t stream_id)
{
    return Rng(streamSeed(master_seed, stream_id));
}

Rng
Rng::fork()
{
    // Derive a child seed from two draws of the parent; the parent
    // advances, so successive forks are independent.
    const std::uint64_t child_seed = next() ^ rotl(next(), 32);
    return Rng(child_seed);
}

} // namespace mopac
