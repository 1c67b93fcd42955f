/**
 * @file
 * Container-format tests: round-trips, nested sections, and every
 * rejection path (truncation, bit flips, foreign magic, version skew,
 * kind skew, config-hash skew, trailing garbage).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "scratch_dir.hh"

namespace mopac
{
namespace
{

constexpr std::uint32_t kTag = 0x54455354; // 'TEST'
constexpr std::uint64_t kHash = 0xDEADBEEFCAFEF00Dull;

std::vector<std::uint8_t>
sampleImage()
{
    Serializer ser;
    ser.begin(kTag);
    ser.putU8(7);
    ser.putU32(0x12345678u);
    ser.putU64(0x0123456789ABCDEFull);
    ser.putF64(3.14159);
    ser.putStr("hello checkpoint");
    ser.putVecU8({1, 2, 3});
    ser.putVecU32({10, 20});
    ser.putVecU64({100});
    ser.begin(kTag + 1);
    ser.putU32(42);
    ser.end();
    ser.end();
    return ser.finish(FileKind::kSnapshot, kHash);
}

TEST(Serialize, RoundTripsEveryFieldType)
{
    Deserializer des(sampleImage(), FileKind::kSnapshot, kHash);
    des.begin(kTag);
    EXPECT_EQ(des.getU8(), 7u);
    EXPECT_EQ(des.getU32(), 0x12345678u);
    EXPECT_EQ(des.getU64(), 0x0123456789ABCDEFull);
    EXPECT_DOUBLE_EQ(des.getF64(), 3.14159);
    EXPECT_EQ(des.getStr(), "hello checkpoint");
    EXPECT_EQ(des.getVecU8(), (std::vector<std::uint8_t>{1, 2, 3}));
    EXPECT_EQ(des.getVecU32(), (std::vector<std::uint32_t>{10, 20}));
    EXPECT_EQ(des.getVecU64(), (std::vector<std::uint64_t>{100}));
    des.begin(kTag + 1);
    EXPECT_EQ(des.getU32(), 42u);
    des.end();
    des.end();
    des.finish();
    EXPECT_EQ(des.configHash(), kHash);
}

TEST(Serialize, DoublesRoundTripBitExactly)
{
    Serializer ser;
    ser.begin(kTag);
    ser.putF64(0.1 + 0.2);
    ser.putF64(-0.0);
    ser.putF64(1e-308);
    ser.end();
    Deserializer des(ser.finish(FileKind::kSnapshot, kHash),
                     FileKind::kSnapshot, kHash);
    des.begin(kTag);
    EXPECT_EQ(des.getF64(), 0.1 + 0.2);
    const double neg_zero = des.getF64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_EQ(des.getF64(), 1e-308);
    des.end();
    des.finish();
}

TEST(Serialize, AnyConfigHashSentinelSkipsTheCheck)
{
    Deserializer des(sampleImage(), FileKind::kSnapshot,
                     Deserializer::kAnyConfigHash);
    EXPECT_EQ(des.configHash(), kHash);
}

TEST(Serialize, RejectsConfigHashMismatch)
{
    EXPECT_THROW(
        Deserializer(sampleImage(), FileKind::kSnapshot, kHash + 1),
        SerializeError);
}

TEST(Serialize, RejectsKindMismatch)
{
    EXPECT_THROW(
        Deserializer(sampleImage(), FileKind::kCacheEntry, kHash),
        SerializeError);
}

TEST(Serialize, RejectsForeignMagic)
{
    std::vector<std::uint8_t> image = sampleImage();
    image[0] = 'X';
    EXPECT_THROW(Deserializer(image, FileKind::kSnapshot, kHash),
                 SerializeError);
}

TEST(Serialize, RejectsVersionSkew)
{
    std::vector<std::uint8_t> image = sampleImage();
    image[8] = static_cast<std::uint8_t>(kSerializeVersion + 1);
    EXPECT_THROW(Deserializer(image, FileKind::kSnapshot, kHash),
                 SerializeError);
}

TEST(Serialize, RejectsEveryTruncationLength)
{
    const std::vector<std::uint8_t> image = sampleImage();
    for (std::size_t len = 0; len < image.size(); ++len) {
        const std::vector<std::uint8_t> cut(image.begin(),
                                            image.begin() + len);
        EXPECT_THROW(Deserializer(cut, FileKind::kSnapshot, kHash),
                     SerializeError)
            << "truncated to " << len << " bytes";
    }
}

TEST(Serialize, RejectsEverySingleBitFlip)
{
    const std::vector<std::uint8_t> image = sampleImage();
    // Flipping any bit anywhere must be caught by the envelope checks
    // or the CRC trailer -- never silently accepted as valid state.
    for (std::size_t byte = 0; byte < image.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<std::uint8_t> mutant = image;
            mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
            EXPECT_THROW(
                Deserializer(mutant, FileKind::kSnapshot, kHash),
                SerializeError)
                << "bit " << bit << " of byte " << byte;
        }
    }
}

TEST(Serialize, RejectsTrailingGarbage)
{
    std::vector<std::uint8_t> image = sampleImage();
    image.push_back(0);
    EXPECT_THROW(Deserializer(image, FileKind::kSnapshot, kHash),
                 SerializeError);
}

TEST(Serialize, RejectsWrongSectionTag)
{
    Deserializer des(sampleImage(), FileKind::kSnapshot, kHash);
    EXPECT_THROW(des.begin(kTag + 99), SerializeError);
}

TEST(Serialize, RejectsUnderconsumedSection)
{
    Deserializer des(sampleImage(), FileKind::kSnapshot, kHash);
    des.begin(kTag);
    des.getU8();
    EXPECT_THROW(des.end(), SerializeError);
}

TEST(Serialize, RejectsReadPastSectionEnd)
{
    Serializer ser;
    ser.begin(kTag);
    ser.putU8(1);
    ser.end();
    Deserializer des(ser.finish(FileKind::kSnapshot, kHash),
                     FileKind::kSnapshot, kHash);
    des.begin(kTag);
    des.getU8();
    EXPECT_THROW(des.getU64(), SerializeError);
}

TEST(Serialize, RejectsUnfinishedPayload)
{
    Deserializer des(sampleImage(), FileKind::kSnapshot, kHash);
    EXPECT_THROW(des.finish(), SerializeError);
}

TEST(Serialize, EmptyFileIsAStructuredError)
{
    EXPECT_THROW(Deserializer({}, FileKind::kSnapshot, kHash),
                 SerializeError);
}

TEST(Serialize, AtomicWriteFileRoundTrips)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.path("atomic.bin");
    const std::vector<std::uint8_t> image = sampleImage();
    atomicWriteFile(path, image);
    EXPECT_TRUE(fileExists(path));
    EXPECT_EQ(readFileBytes(path), image);
    // Overwrite is atomic too: the new content fully replaces the old.
    Serializer ser;
    ser.begin(kTag);
    ser.putU32(1);
    ser.end();
    const std::vector<std::uint8_t> next =
        ser.finish(FileKind::kSnapshot, kHash);
    atomicWriteFile(path, next);
    EXPECT_EQ(readFileBytes(path), next);
}

TEST(Serialize, ReadMissingFileIsAStructuredError)
{
    EXPECT_THROW(readFileBytes("/nonexistent/mopac/nope.bin"),
                 SerializeError);
}

TEST(Serialize, Fnv1a64MatchesReferenceVectors)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

} // namespace
} // namespace mopac
