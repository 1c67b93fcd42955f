/**
 * @file
 * Per-(chip, bank, row) 32-bit state, materialized on first write.
 *
 * The PRAC counters and the security oracle both keep one word per
 * row per chip: 2 sub-channels x 32 banks x 64K rows x 4 chips is
 * 32 MB per sub-channel and table.  A run only touches the rows its
 * activations reach, so the store takes its memory from the OS as
 * untouched zero pages (anonymous mmap, never a memset) and keeps one
 * "written" bit per 4 KB page.  Construction is O(1) and a run pays
 * only for the pages it writes.
 *
 * Write-first rule: reads of an unwritten page return 0 without
 * touching memory, and the first access to any page is a store.  A
 * read that reached an untouched page would map the kernel's shared
 * zero page, and the first write after it would pay a second
 * (copy-on-write) fault plus a TLB shootdown across every thread of
 * the process.
 *
 * Snapshots stream the words in chip-major order (chip, bank, row),
 * zeros included, as the putU64 length plus putU32 words that
 * Serializer::putVecU32 writes; loads materialize only the pages that
 * hold a nonzero word.
 */

#ifndef MOPAC_DRAM_ROW_STORE_HH
#define MOPAC_DRAM_ROW_STORE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace mopac
{

/** Lazily materialized per-chip, per-bank, per-row words. */
class RowStore
{
  public:
    /** In-memory word order; the snapshot stream is always chip-major. */
    enum class Layout
    {
        /** (chip, bank, row): one chip's rows of a bank are adjacent. */
        kChipMajor,
        /** (bank, row, chip): one row's chip words are adjacent. */
        kChipMinor,
    };

    RowStore(unsigned banks, std::uint32_t rows, unsigned chips,
             Layout layout);
    ~RowStore();

    RowStore(const RowStore &) = delete;
    RowStore &operator=(const RowStore &) = delete;

    unsigned banks() const { return banks_; }
    std::uint32_t rows() const { return rows_; }
    unsigned chips() const { return chips_; }

    /** Logical size in bytes (every word, written or not). */
    std::uint64_t
    bytes() const
    {
        return static_cast<std::uint64_t>(words_) * sizeof(std::uint32_t);
    }

    /** Bytes of the pages materialized so far. */
    std::uint64_t writtenBytes() const;

    /** Current word; 0 for a page never written. */
    std::uint32_t
    get(unsigned chip, unsigned bank, std::uint32_t row) const
    {
        const std::size_t i = index(chip, bank, row);
        return written(i / kPageWords) ? data_[i] : 0;
    }

    /** Writable word, materializing its page. */
    std::uint32_t &
    at(unsigned chip, unsigned bank, std::uint32_t row)
    {
        const std::size_t i = index(chip, bank, row);
        materialize(i, i);
        return data_[i];
    }

    /**
     * Writable run of the chips() words of (bank, row), materializing
     * the pages it spans.  kChipMinor only.
     */
    std::uint32_t *
    rowWords(unsigned bank, std::uint32_t row)
    {
        MOPAC_ASSERT(layout_ == Layout::kChipMinor);
        const std::size_t first = index(0, bank, row);
        materialize(first, first + chips_ - 1);
        return data_ + first;
    }

    /** Zero one word; an unwritten page stays unwritten. */
    void
    zero(unsigned chip, unsigned bank, std::uint32_t row)
    {
        const std::size_t i = index(chip, bank, row);
        if (written(i / kPageWords)) {
            data_[i] = 0;
        }
    }

    /** Zero rows [row_begin, row_end) of @p bank on every chip. */
    void zeroRows(unsigned bank, std::uint32_t row_begin,
                  std::uint32_t row_end);

    /**
     * Stream every word, chip-major, zeros for unwritten pages.  A
     * load replaces every word; pages whose words are all zero stay
     * (or become logically) unwritten.  Throws on a length mismatch.
     */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

  private:
    static constexpr std::size_t kPageBytes = 4096;
    static constexpr std::size_t kPageWords =
        kPageBytes / sizeof(std::uint32_t);

    std::size_t
    index(unsigned chip, unsigned bank, std::uint32_t row) const
    {
        MOPAC_ASSERT(chip < chips_ && bank < banks_ && row < rows_);
        if (layout_ == Layout::kChipMinor) {
            return (static_cast<std::size_t>(bank) * rows_ + row) *
                       chips_ +
                   chip;
        }
        return (static_cast<std::size_t>(chip) * banks_ + bank) * rows_ +
               row;
    }

    bool
    written(std::size_t page) const
    {
        return (written_[page / 64] >> (page % 64)) & 1u;
    }

    /** Mark the pages holding words [first, last] written. */
    void
    materialize(std::size_t first, std::size_t last)
    {
        for (std::size_t p = first / kPageWords; p <= last / kPageWords;
             ++p) {
            if (!written(p)) {
                firstWrite(p);
            }
        }
    }

    /** Cold path: set the page's bit and store to it before any read. */
    void firstWrite(std::size_t page);

    /** Zero words [first, first + count) on written pages only. */
    void zeroSpan(std::size_t first, std::size_t count);

    /** Store @p value at word @p i; a zero never materializes a page. */
    void put(std::size_t i, std::uint32_t value);

    // Shape and layout are construction-time; the owner's snapshot
    // header pins them, and a load checks the word count.
    unsigned banks_;     // mopac-lint: allow(serial-drift)
    std::uint32_t rows_; // mopac-lint: allow(serial-drift)
    unsigned chips_;     // mopac-lint: allow(serial-drift)
    Layout layout_;      // mopac-lint: allow(serial-drift)
    std::size_t words_;  // mopac-lint: allow(serial-drift)
    std::size_t map_bytes_; // mopac-lint: allow(serial-drift)
    // The words and page bits are snapshotted through get() and put(),
    // so transfer never names them.
    /** Anonymous mapping of map_bytes_ zero bytes. */
    std::uint32_t *data_; // mopac-lint: allow(serial-drift)
    /** One bit per kPageBytes page of data_. */
    std::vector<std::uint64_t> written_; // mopac-lint: allow(serial-drift)
};

} // namespace mopac

#endif // MOPAC_DRAM_ROW_STORE_HH
