/**
 * @file
 * Deterministic bytes of a sweep point's result: its result-store
 * encoding, which leaves the host wall time out.  Tests compare
 * results across engines, jobs counts and store round trips with it.
 */

#ifndef MOPAC_TESTS_POINT_BYTES_HH
#define MOPAC_TESTS_POINT_BYTES_HH

#include <cstdint>
#include <vector>

#include "common/serialize.hh"
#include "sim/result_store.hh"

namespace mopac::test
{

/** @p result as the store writes it. */
inline std::vector<std::uint8_t>
canonicalBytes(const PointResult &result)
{
    Serializer ser;
    savePointResult(ser, result);
    return ser.finish(FileKind::kCacheEntry, result.point_id);
}

} // namespace mopac::test

#endif // MOPAC_TESTS_POINT_BYTES_HH
