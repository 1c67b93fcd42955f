/**
 * @file
 * RowStore implementation.
 */

#include "row_store.hh"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <new>

#include "common/serialize.hh"

namespace mopac
{

RowStore::RowStore(unsigned banks, std::uint32_t rows, unsigned chips,
                   Layout layout)
    : banks_(banks), rows_(rows), chips_(chips), layout_(layout),
      words_(static_cast<std::size_t>(banks) * rows * chips),
      map_bytes_((words_ * sizeof(std::uint32_t) + kPageBytes - 1) /
                 kPageBytes * kPageBytes),
      data_(nullptr),
      written_((map_bytes_ / kPageBytes + 63) / 64, 0)
{
    MOPAC_ASSERT(banks > 0 && rows > 0 && chips > 0);
    // Fresh anonymous pages read as zero and cost nothing until
    // written; MAP_NORESERVE keeps untouched pages out of the commit
    // charge as well.
    void *map = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (map == MAP_FAILED) {
        throw std::bad_alloc();
    }
    data_ = static_cast<std::uint32_t *>(map);
}

RowStore::~RowStore()
{
    ::munmap(data_, map_bytes_);
}

std::uint64_t
RowStore::writtenBytes() const
{
    std::uint64_t pages = 0;
    for (const std::uint64_t bits : written_) {
        pages += static_cast<std::uint64_t>(std::popcount(bits));
    }
    return pages * kPageBytes;
}

void
RowStore::firstWrite(std::size_t page)
{
    written_[page / 64] |= std::uint64_t{1} << (page % 64);
    // The page is all zeros; storing one makes this write, not a
    // read, the access that faults it in (see the file comment).
    data_[page * kPageWords] = 0;
}

void
RowStore::zeroSpan(std::size_t first, std::size_t count)
{
    const std::size_t end = first + count;
    for (std::size_t i = first; i < end;) {
        const std::size_t page = i / kPageWords;
        const std::size_t stop = std::min(end, (page + 1) * kPageWords);
        if (written(page)) {
            std::fill(data_ + i, data_ + stop, 0u);
        }
        i = stop;
    }
}

void
RowStore::zeroRows(unsigned bank, std::uint32_t row_begin,
                   std::uint32_t row_end)
{
    MOPAC_ASSERT(bank < banks_ && row_begin <= row_end && row_end <= rows_);
    if (row_begin == row_end) {
        return;
    }
    if (layout_ == Layout::kChipMinor) {
        // Rows [begin, end) x all chips are one contiguous run.
        zeroSpan(index(0, bank, row_begin),
                 static_cast<std::size_t>(row_end - row_begin) * chips_);
        return;
    }
    for (unsigned chip = 0; chip < chips_; ++chip) {
        zeroSpan(index(chip, bank, row_begin), row_end - row_begin);
    }
}

void
RowStore::put(std::size_t i, std::uint32_t value)
{
    if (value != 0) {
        materialize(i, i);
        data_[i] = value;
    } else if (written(i / kPageWords)) {
        data_[i] = 0;
    }
}

template <class Self, class Ar>
void
RowStore::transfer(Self &self, Ar &ar)
{
    // Byte-for-byte what putVecU32 writes for the dense chip-major
    // vector, streamed without building one.
    std::uint64_t words = self.words_;
    ar.u64(words);
    if (Ar::kLoading && words != self.words_) {
        throw SerializeError("row state word count mismatch");
    }
    for (unsigned chip = 0; chip < self.chips_; ++chip) {
        for (unsigned bank = 0; bank < self.banks_; ++bank) {
            for (std::uint32_t row = 0; row < self.rows_; ++row) {
                if constexpr (Ar::kLoading) {
                    std::uint32_t word = 0;
                    ar.u32(word);
                    self.put(self.index(chip, bank, row), word);
                } else {
                    ar.u32(self.get(chip, bank, row));
                }
            }
        }
    }
}

MOPAC_TRANSFER_INSTANTIATE(RowStore);

} // namespace mopac
