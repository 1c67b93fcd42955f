/**
 * @file
 * Paired-run slowdown helper for the performance-shape tests.
 */

#ifndef MOPAC_TESTS_WORKLOAD_SLOWDOWN_HH
#define MOPAC_TESTS_WORKLOAD_SLOWDOWN_HH

#include <string>

#include "sim/experiment.hh"

namespace mopac::test
{

/**
 * Slowdown of @p test_cfg vs @p base_cfg on workload @p name: both
 * runs replay the same trace when the configs share a seed.
 */
inline double
workloadSlowdown(const SystemConfig &base_cfg,
                 const SystemConfig &test_cfg, const std::string &name)
{
    const RunResult base = runWorkload(base_cfg, name);
    const RunResult test = runWorkload(test_cfg, name);
    return weightedSlowdown(base, test);
}

} // namespace mopac::test

#endif // MOPAC_TESTS_WORKLOAD_SLOWDOWN_HH
