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

void
PracCounters::saveState(Serializer &ser) const
{
    ser.putU32(banks());
    ser.putU32(rows());
    ser.putU32(chips());
    data_.saveState(ser);
}

void
PracCounters::loadState(Deserializer &des)
{
    const std::uint32_t banks = des.getU32();
    const std::uint32_t rows = des.getU32();
    const std::uint32_t chips = des.getU32();
    if (banks != this->banks() || rows != this->rows() ||
        chips != this->chips()) {
        throw SerializeError(
            format("PRAC geometry mismatch (saved {}x{}x{}, live "
                   "{}x{}x{})",
                   chips, banks, rows, this->chips(), this->banks(),
                   this->rows()));
    }
    data_.loadState(des);
}

} // namespace mopac
