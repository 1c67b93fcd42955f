/**
 * @file
 * Property tests for the lazily materialized per-row state behind
 * PracCounters and SecurityChecker (dram/row_store.hh).
 *
 * Seeded random operation sequences run against the real classes and
 * against a dense std::vector reference model kept here, over a
 * geometry that spans many 4 KB pages.  Writes stay inside part of
 * the geometry, so reads and resets also land on pages that were
 * never written.  Rows next to page edges, row 0 and the last row are
 * drawn often.  Every read, the oracle's max_unmitigated and
 * violations, and the saveState bytes must match the reference; the
 * byte image is exactly what the dense vectors used to serialize.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "dram/checker.hh"
#include "dram/prac.hh"

namespace mopac
{
namespace
{

constexpr unsigned kBanks = 4;
constexpr std::uint32_t kRows = 8192;
constexpr unsigned kOps = 20000;
constexpr unsigned kSaveEvery = 2500;
/** 32-bit words in one 4 KB page. */
constexpr std::uint32_t kPageWords = 1024;

/** Dense chip-major reference: word (chip, bank, row). */
struct DenseModel
{
    unsigned chips;
    std::vector<std::uint32_t> words;

    explicit DenseModel(unsigned chip_count)
        : chips(chip_count),
          words(static_cast<std::size_t>(chip_count) * kBanks * kRows, 0)
    {
    }

    std::uint32_t &
    at(unsigned chip, unsigned bank, std::uint32_t row)
    {
        return words[(static_cast<std::size_t>(chip) * kBanks + bank) *
                         kRows +
                     row];
    }
};

/**
 * Rows whose words touch or straddle a 4 KB page boundary when a row
 * holds one to four 32-bit words, plus the first and last rows.
 */
std::vector<std::uint32_t>
edgeRows()
{
    std::vector<std::uint32_t> out;
    for (std::uint32_t row = 0; row < kRows; ++row) {
        bool edge = row < 3 || row >= kRows - 2;
        for (std::uint32_t w = 1; w <= 4; ++w) {
            const std::uint32_t off = (row * w) % kPageWords;
            edge = edge || off < w || off >= kPageWords - w;
        }
        if (edge) {
            out.push_back(row);
        }
    }
    return out;
}

/** Any row, with page edges and the ends drawn often. */
std::uint32_t
anyRow(Rng &rng, const std::vector<std::uint32_t> &edges)
{
    if (rng.below(3) == 0) {
        return edges[rng.below(edges.size())];
    }
    return static_cast<std::uint32_t>(rng.below(kRows));
}

/**
 * A row that may be written: the lower half of the bank or an edge
 * row.  The upper half's interior pages are only ever read or reset.
 */
std::uint32_t
writableRow(Rng &rng, const std::vector<std::uint32_t> &edges)
{
    if (rng.below(3) == 0) {
        return edges[rng.below(edges.size())];
    }
    return static_cast<std::uint32_t>(rng.below(kRows / 2));
}

/** Banks 0, 1 and 3 are written; bank 2 is only read and reset. */
unsigned
writableBank(Rng &rng)
{
    const unsigned bank = static_cast<unsigned>(rng.below(kBanks - 1));
    return bank == 2 ? 3 : bank;
}

template <typename T>
std::vector<std::uint8_t>
snapshot(const T &obj)
{
    Serializer ser;
    T::transfer(obj, ser);
    return ser.finish(FileKind::kSnapshot, 0);
}

std::vector<std::uint8_t>
pracImage(const DenseModel &ref)
{
    Serializer ser;
    ser.putU32(kBanks);
    ser.putU32(kRows);
    ser.putU32(ref.chips);
    ser.putVecU32(ref.words);
    return ser.finish(FileKind::kSnapshot, 0);
}

TEST(RowStateProperty, PracCountersMatchDenseModel)
{
    const std::vector<std::uint32_t> edges = edgeRows();
    for (const unsigned chips : {1u, 3u, 4u}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << "chips " << chips << " seed " << seed);
            Rng rng(seed);
            PracCounters prac(kBanks, kRows, chips);
            DenseModel ref(chips);
            for (unsigned op = 0; op < kOps; ++op) {
                const unsigned chip =
                    static_cast<unsigned>(rng.below(chips));
                switch (rng.below(8)) {
                  case 0:
                  case 1: {
                    const unsigned bank = writableBank(rng);
                    const std::uint32_t row = writableRow(rng, edges);
                    const auto inc =
                        static_cast<std::uint32_t>(rng.below(300));
                    std::uint32_t &w = ref.at(chip, bank, row);
                    w = std::min(w + inc, PracCounters::kMax);
                    ASSERT_EQ(prac.add(chip, bank, row, inc), w);
                    break;
                  }
                  case 2: {
                    const unsigned bank = writableBank(rng);
                    const std::uint32_t row = writableRow(rng, edges);
                    // Occasionally past the 22-bit field: set clamps.
                    const std::uint32_t value =
                        rng.below(8) == 0
                            ? PracCounters::kMax + 5
                            : static_cast<std::uint32_t>(rng.below(1000));
                    prac.set(chip, bank, row, value);
                    ref.at(chip, bank, row) =
                        std::min(value, PracCounters::kMax);
                    break;
                  }
                  case 3: {
                    const auto bank =
                        static_cast<unsigned>(rng.below(kBanks));
                    const std::uint32_t row = anyRow(rng, edges);
                    prac.reset(bank, row);
                    for (unsigned c = 0; c < chips; ++c) {
                        ref.at(c, bank, row) = 0;
                    }
                    break;
                  }
                  case 4: {
                    const auto bank =
                        static_cast<unsigned>(rng.below(kBanks));
                    const std::uint32_t row = anyRow(rng, edges);
                    prac.resetChip(chip, bank, row);
                    ref.at(chip, bank, row) = 0;
                    break;
                  }
                  case 5: {
                    const auto bank =
                        static_cast<unsigned>(rng.below(kBanks));
                    const std::uint32_t a = anyRow(rng, edges);
                    std::uint32_t b =
                        std::min<std::uint32_t>(a + 1 + rng.below(600),
                                                kRows);
                    if (rng.below(4) == 0) {
                        b = a; // empty range
                    }
                    prac.resetRange(bank, a, b);
                    for (unsigned c = 0; c < chips; ++c) {
                        for (std::uint32_t r = a; r < b; ++r) {
                            ref.at(c, bank, r) = 0;
                        }
                    }
                    break;
                  }
                  default: {
                    const auto bank =
                        static_cast<unsigned>(rng.below(kBanks));
                    const std::uint32_t row = anyRow(rng, edges);
                    ASSERT_EQ(prac.get(chip, bank, row),
                              ref.at(chip, bank, row))
                        << "bank " << bank << " row " << row;
                    break;
                  }
                }
                if ((op + 1) % kSaveEvery == 0) {
                    ASSERT_EQ(snapshot(prac), pracImage(ref));
                }
            }
            // The never-written bank reads zero and costs no memory
            // beyond what the other banks wrote.
            EXPECT_LT(prac.writtenBytes(), prac.storageBytes());

            // A restore reproduces the bytes and materializes no page
            // the saved counters did not need.
            const std::vector<std::uint8_t> image = snapshot(prac);
            PracCounters restored(kBanks, kRows, chips);
            Deserializer des(image, FileKind::kSnapshot, 0);
            PracCounters::transfer(restored, des);
            des.finish();
            EXPECT_EQ(snapshot(restored), image);
            EXPECT_LE(restored.writtenBytes(), prac.writtenBytes());
        }
    }
}

TEST(RowStateProperty, LoadingZerosMaterializesNothing)
{
    PracCounters saved(kBanks, kRows, 4);
    saved.add(1, 3, kRows - 1, 7);
    saved.resetRange(3, 0, kRows);
    ASSERT_GT(saved.writtenBytes(), 0u);
    const std::vector<std::uint8_t> image = snapshot(saved);

    PracCounters restored(kBanks, kRows, 4);
    Deserializer des(image, FileKind::kSnapshot, 0);
    PracCounters::transfer(restored, des);
    EXPECT_EQ(restored.writtenBytes(), 0u);

    // Loading over live state clears what the image does not hold.
    PracCounters live(kBanks, kRows, 4);
    live.add(2, 0, 0, 9);
    Deserializer des2(image, FileKind::kSnapshot, 0);
    PracCounters::transfer(live, des2);
    EXPECT_EQ(live.get(2, 0, 0), 0u);
    EXPECT_EQ(snapshot(live), image);
}

TEST(RowStateProperty, RowStraddlingAPageEdgeCountsOnEveryChip)
{
    // Three chips make a row 12 bytes: row 341 is words 1023-1025,
    // so its first chip sits on one page and the other two on the
    // next, which nothing else has written.
    SecurityChecker checker(kBanks, kRows, 3, 1000);
    checker.onActivate(0, 341, 1);
    for (unsigned chip = 0; chip < 3; ++chip) {
        EXPECT_EQ(checker.count(chip, 0, 341), 1u) << chip;
    }
}

/** Dense reference for SecurityChecker's oracle counts. */
struct OracleModel
{
    DenseModel counts;
    std::uint32_t trh;
    std::uint32_t max_unmitigated = 0;
    std::uint64_t violations = 0;

    OracleModel(unsigned chips, std::uint32_t threshold)
        : counts(chips), trh(threshold)
    {
    }

    void
    bump(unsigned chip, unsigned bank, std::uint32_t row)
    {
        const std::uint32_t c = ++counts.at(chip, bank, row);
        max_unmitigated = std::max(max_unmitigated, c);
        if (c > trh) {
            ++violations;
        }
    }

    void
    activate(unsigned bank, std::uint32_t row)
    {
        for (unsigned chip = 0; chip < counts.chips; ++chip) {
            bump(chip, bank, row);
        }
    }

    void
    sweep(std::uint32_t begin, std::uint32_t end)
    {
        for (unsigned chip = 0; chip < counts.chips; ++chip) {
            for (unsigned bank = 0; bank < kBanks; ++bank) {
                for (std::uint32_t row = begin; row < end; ++row) {
                    counts.at(chip, bank, row) = 0;
                }
            }
        }
    }

    void
    victimRefresh(unsigned chip, unsigned bank, std::uint32_t row)
    {
        const unsigned lo = chip == kAllChips ? 0 : chip;
        const unsigned hi = chip == kAllChips ? counts.chips : chip + 1;
        for (unsigned c = lo; c < hi; ++c) {
            counts.at(c, bank, row) = 0;
            for (const int d : {-2, -1, 1, 2}) {
                const std::int64_t v = static_cast<std::int64_t>(row) + d;
                if (v >= 0 && v < static_cast<std::int64_t>(kRows)) {
                    const auto victim = static_cast<std::uint32_t>(v);
                    counts.at(c, bank, victim) = 0;
                    bump(c, bank, victim);
                }
            }
        }
    }

    /** SecurityChecker's snapshot layout, epoch tracking disabled. */
    std::vector<std::uint8_t>
    image() const
    {
        Serializer ser;
        ser.putU32(kBanks);
        ser.putU32(kRows);
        ser.putU32(counts.chips);
        ser.putU32(trh);
        ser.putVecU32(counts.words);
        ser.putU32(max_unmitigated);
        ser.putU64(violations);
        ser.putU8(0);
        ser.putU64(0);
        ser.putU32(64);
        ser.putU32(200);
        ser.putU64(0);
        ser.putU64(0);
        ser.putU64(0);
        ser.putU64(0);
        ser.putU64(0);
        return ser.finish(FileKind::kSnapshot, 0);
    }
};

TEST(RowStateProperty, SecurityCheckerMatchesDenseModel)
{
    constexpr std::uint32_t kTrh = 60;
    const std::vector<std::uint32_t> edges = edgeRows();
    for (const unsigned chips : {1u, 3u, 4u}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << "chips " << chips << " seed " << seed);
            Rng rng(seed);
            SecurityChecker checker(kBanks, kRows, chips, kTrh);
            OracleModel ref(chips, kTrh);
            Cycle now = 0;
            for (unsigned op = 0; op < kOps; ++op) {
                ++now;
                switch (rng.below(8)) {
                  case 0:
                  case 1:
                  case 2: {
                    // Hammer a few rows hard enough to pass T_RH.
                    const unsigned bank = writableBank(rng);
                    const std::uint32_t row = writableRow(rng, edges);
                    const auto burst = 1 + rng.below(40);
                    for (std::uint64_t k = 0; k < burst; ++k) {
                        checker.onActivate(bank, row, now);
                        ref.activate(bank, row);
                    }
                    break;
                  }
                  case 3: {
                    const std::uint32_t a = anyRow(rng, edges);
                    const std::uint32_t b = std::min<std::uint32_t>(
                        a + static_cast<std::uint32_t>(rng.below(300)),
                        kRows);
                    checker.onSweep(a, b);
                    ref.sweep(a, b);
                    break;
                  }
                  case 4: {
                    const unsigned chip =
                        rng.below(3) == 0
                            ? kAllChips
                            : static_cast<unsigned>(rng.below(chips));
                    // Refreshes reach unwritten rows too (bank 2 and
                    // the upper half are never activated).
                    const auto bank =
                        static_cast<unsigned>(rng.below(kBanks));
                    const std::uint32_t row = anyRow(rng, edges);
                    checker.onVictimRefresh(chip, bank, row, now);
                    ref.victimRefresh(chip, bank, row);
                    break;
                  }
                  default: {
                    const auto chip =
                        static_cast<unsigned>(rng.below(chips));
                    const auto bank =
                        static_cast<unsigned>(rng.below(kBanks));
                    const std::uint32_t row = anyRow(rng, edges);
                    ASSERT_EQ(checker.count(chip, bank, row),
                              ref.counts.at(chip, bank, row))
                        << "bank " << bank << " row " << row;
                    break;
                  }
                }
                ASSERT_EQ(checker.maxUnmitigated(), ref.max_unmitigated);
                ASSERT_EQ(checker.violations(), ref.violations);
                if ((op + 1) % kSaveEvery == 0) {
                    ASSERT_EQ(snapshot(checker), ref.image());
                }
            }
            EXPECT_GT(checker.violations(), 0u);

            const std::vector<std::uint8_t> image = snapshot(checker);
            SecurityChecker restored(kBanks, kRows, chips, kTrh);
            Deserializer des(image, FileKind::kSnapshot, 0);
            SecurityChecker::transfer(restored, des);
            des.finish();
            EXPECT_EQ(snapshot(restored), image);
        }
    }
}

} // namespace
} // namespace mopac
