/**
 * @file
 * Counter-mode stream splitting tests.
 *
 * The parallel runner gives every experiment point its own stream
 * seed derived from (master_seed, stream_id).  Three properties make
 * the sweeps trustworthy:
 *
 *   - injectivity: within one master seed, distinct stream ids can
 *     never collide (the finalizer is bijective);
 *   - independence: adjacent streams share no draws and no obvious
 *     bit correlation, and adjacent *masters* decorrelate too;
 *   - stability: the mapping is a frozen file format -- golden
 *     constants pin it across platforms and refactors, because the
 *     checked-in golden regression numbers depend on it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>

#include "common/rng.hh"

namespace mopac
{
namespace
{

TEST(RngStreams, StreamSeedsAreInjectivePerMaster)
{
    for (std::uint64_t master : {0ull, 1ull, 12345ull, ~0ull}) {
        std::unordered_set<std::uint64_t> seen;
        for (std::uint64_t stream = 0; stream < 100000; ++stream) {
            const auto seed = Rng::streamSeed(master, stream);
            EXPECT_TRUE(seen.insert(seed).second)
                << "master " << master << " stream " << stream
                << " collides with an earlier stream";
        }
    }
}

TEST(RngStreams, AdjacentStreamsShareNoDraws)
{
    // 64-bit draws from distinct streams collide with probability
    // ~2^-64 per pair; any overlap in this sample means the streams
    // are correlated, not unlucky.
    std::unordered_set<std::uint64_t> seen;
    constexpr unsigned kStreams = 64;
    constexpr unsigned kDraws = 512;
    for (std::uint64_t stream = 0; stream < kStreams; ++stream) {
        constexpr std::uint64_t kMaster = 42;
        Rng rng = Rng::forStream(kMaster, stream);
        for (unsigned i = 0; i < kDraws; ++i) {
            EXPECT_TRUE(seen.insert(rng.next()).second)
                << "stream " << stream << " draw " << i
                << " repeats a value from another stream";
        }
    }
    EXPECT_EQ(seen.size(), kStreams * kDraws);
}

TEST(RngStreams, AdjacentMastersDecorrelate)
{
    // Nearby master seeds (sweep seeds are often small integers)
    // must yield unrelated stream-0 generators.
    std::unordered_set<std::uint64_t> seen;
    for (std::uint64_t master = 0; master < 256; ++master) {
        EXPECT_TRUE(seen.insert(Rng::streamSeed(master, 0)).second);
    }
    // Bit-level sanity: flipping the low master bit flips about half
    // the seed bits (an affine or narrow diff would show here).
    unsigned total_flips = 0;
    for (std::uint64_t master = 0; master < 64; ++master) {
        const std::uint64_t diff =
            Rng::streamSeed(2 * master, 7) ^
            Rng::streamSeed(2 * master + 1, 7);
        total_flips += __builtin_popcountll(diff);
    }
    const double mean_flips = total_flips / 64.0;
    EXPECT_GT(mean_flips, 24.0);
    EXPECT_LT(mean_flips, 40.0);
}

TEST(RngStreams, StreamZeroIsNotTheMasterItself)
{
    // A naive split (stream 0 == master) would make the sweep's
    // first point share its trace with any code seeding Rng(master)
    // directly.
    for (std::uint64_t master : {0ull, 12345ull, 99ull}) {
        EXPECT_NE(Rng::streamSeed(master, 0), master);
    }
}

TEST(RngStreams, ForStreamMatchesStreamSeed)
{
    constexpr std::uint64_t kMaster = 777;
    Rng direct(Rng::streamSeed(kMaster, 3));
    Rng split = Rng::forStream(kMaster, 3);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(direct.next(), split.next());
    }
}

TEST(RngStreams, MappingIsFrozen)
{
    // Golden constants: the stream mapping is part of the on-disk
    // experiment format (tests/regression golden numbers embed it).
    // If this test fails, the mapping changed -- regenerate ALL
    // golden values or revert the change.
    constexpr std::uint64_t kGoldenMaster = 12345;
    constexpr std::uint64_t kZeroMaster = 0;
    EXPECT_EQ(Rng::streamSeed(kGoldenMaster, 0), 0x371889741f9c3e39ull);
    EXPECT_EQ(Rng::streamSeed(kGoldenMaster, 1), 0xddf5bf71701a5214ull);
    EXPECT_EQ(Rng::streamSeed(kZeroMaster, 0), 0x9474f0eb06d79fd8ull);

    Rng rng = Rng::forStream(kGoldenMaster, 7);
    EXPECT_EQ(rng.next(), 0x31abd6dfdd414d44ull);
    EXPECT_EQ(rng.next(), 0x85c7c4f7e6408a35ull);
    EXPECT_EQ(rng.next(), 0x472a77654b5d863full);
}

TEST(RngStreams, OrderIndependence)
{
    // Unlike fork(), stream seeds do not depend on how many streams
    // were split before -- the property that makes parallel sweep
    // schedules deterministic.
    constexpr std::uint64_t kMaster = 5;
    const auto a = Rng::streamSeed(kMaster, 17);
    for (std::uint64_t other = 0; other < 17; ++other) {
        (void)Rng::streamSeed(kMaster, other);
    }
    EXPECT_EQ(Rng::streamSeed(kMaster, 17), a);
}

} // namespace
} // namespace mopac
