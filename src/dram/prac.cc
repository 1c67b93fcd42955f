/**
 * @file
 * PracCounters implementation.
 */

#include "prac.hh"

#include "common/format.hh"
#include "common/serialize.hh"

#include <algorithm>

namespace mopac
{

PracCounters::PracCounters(unsigned banks, std::uint32_t rows,
                           unsigned chips)
    : data_(banks, rows, chips, RowStore::Layout::kChipMajor)
{
}

std::uint32_t
PracCounters::add(unsigned chip, unsigned bank, std::uint32_t row,
                  std::uint32_t inc)
{
    std::uint32_t &slot = data_.at(chip, bank, row);
    slot = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(slot) + inc, kMax);
    return slot;
}

void
PracCounters::reset(unsigned bank, std::uint32_t row)
{
    data_.zeroRows(bank, row, row + 1);
}

void
PracCounters::resetChip(unsigned chip, unsigned bank, std::uint32_t row)
{
    data_.zero(chip, bank, row);
}

void
PracCounters::resetRange(unsigned bank, std::uint32_t row_begin,
                         std::uint32_t row_end)
{
    data_.zeroRows(bank, row_begin, row_end);
}

template <class Self, class Ar>
void
PracCounters::transfer(Self &self, Ar &ar)
{
    std::uint32_t banks = self.banks();
    std::uint32_t rows = self.rows();
    std::uint32_t chips = self.chips();
    ar.u32(banks);
    ar.u32(rows);
    ar.u32(chips);
    if (Ar::kLoading && (banks != self.banks() || rows != self.rows() ||
                         chips != self.chips())) {
        throw SerializeError(
            format("PRAC geometry mismatch (saved {}x{}x{}, live "
                   "{}x{}x{})",
                   chips, banks, rows, self.chips(), self.banks(),
                   self.rows()));
    }
    RowStore::transfer(self.data_, ar);
}

MOPAC_TRANSFER_INSTANTIATE(PracCounters);

} // namespace mopac
