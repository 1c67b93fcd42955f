/**
 * @file
 * One stat table for a sweep: the stat snapshots of its kOk points
 * merged in point-id order.  Tests compare sweeps (resumed against
 * uninterrupted, one job against many) with it.
 */

#ifndef MOPAC_TESTS_MERGE_STATS_HH
#define MOPAC_TESTS_MERGE_STATS_HH

#include <vector>

#include "common/stats.hh"
#include "sim/runner.hh"

namespace mopac::test
{

/** Merge the stat snapshots of all kOk @p results, in order. */
inline StatSnapshot
mergeStats(const std::vector<PointResult> &results)
{
    StatSnapshot merged;
    for (const PointResult &result : results) {
        if (result.status == PointStatus::kOk) {
            merged.merge(result.stats);
        }
    }
    return merged;
}

} // namespace mopac::test

#endif // MOPAC_TESTS_MERGE_STATS_HH
