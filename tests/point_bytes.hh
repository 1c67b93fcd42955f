/**
 * @file
 * Deterministic bytes of a sweep point's result: its result-store
 * encoding with the host wall time zeroed.  Tests compare results
 * across pools, engines and store round trips with it.
 */

#ifndef MOPAC_TESTS_POINT_BYTES_HH
#define MOPAC_TESTS_POINT_BYTES_HH

#include <cstdint>
#include <vector>

#include "common/serialize.hh"
#include "sim/result_store.hh"

namespace mopac::test
{

/** @p result as the store writes it, with wall_seconds zeroed. */
inline std::vector<std::uint8_t>
canonicalBytes(const PointResult &result)
{
    PointResult canon = result;
    canon.wall_seconds = 0.0;
    Serializer ser;
    savePointResult(ser, canon);
    return ser.finish(FileKind::kCacheEntry, canon.point_id);
}

} // namespace mopac::test

#endif // MOPAC_TESTS_POINT_BYTES_HH
