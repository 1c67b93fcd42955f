/**
 * @file
 * The central guarantee of the parallel runner: `--jobs 1` and
 * `--jobs N` produce bit-identical results, point by point and in
 * the merged stats table.  A fixed-seed downscaled sweep (three
 * mitigation configs x two workloads) is executed serially, on an
 * 8-worker pool, and on an 8-worker pool again; every RunResult
 * field and every StatSnapshot entry must match exactly -- exact
 * integer equality and bit-identical doubles, not tolerances.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/stats.hh"
#include "merge_stats.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

namespace mopac
{
namespace
{

SystemConfig
smallConfig(MitigationKind kind)
{
    // Explicit scale: the sweep must not depend on bench env knobs.
    SystemConfig cfg = makeConfig(kind, 500);
    cfg.num_cores = 2;
    cfg.insts_per_core = 6000;
    cfg.warmup_insts = 600;
    return cfg;
}

SweepSpec
determinismSweep()
{
    SweepSpec spec;
    spec.master_seed = 2026;
    spec.configs = {
        {"base", smallConfig(MitigationKind::kNone)},
        {"prac", smallConfig(MitigationKind::kPracMoat)},
        {"mopac-d", smallConfig(MitigationKind::kMopacD)},
    };
    spec.workloads = {"mcf", "add"};
    return spec;
}

std::vector<PointResult>
runWithJobs(unsigned jobs)
{
    RunnerOptions opts;
    opts.jobs = jobs;
    return Runner(opts).run(determinismSweep().expand());
}

void
expectIdenticalRun(const RunResult &a, const RunResult &b,
                   std::uint64_t point_id)
{
    SCOPED_TRACE("point " + std::to_string(point_id));
    ASSERT_EQ(a.ipcs.size(), b.ipcs.size());
    for (std::size_t i = 0; i < a.ipcs.size(); ++i) {
        EXPECT_EQ(a.ipcs[i], b.ipcs[i]) << "core " << i;
    }
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.timed_out, b.timed_out);
    EXPECT_EQ(a.acts, b.acts);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.refs, b.refs);
    EXPECT_EQ(a.rfms, b.rfms);
    EXPECT_EQ(a.alerts, b.alerts);
    EXPECT_EQ(a.rbhr, b.rbhr);
    EXPECT_EQ(a.apri, b.apri);
    EXPECT_EQ(a.avg_read_latency_ns, b.avg_read_latency_ns);
    EXPECT_EQ(a.max_unmitigated, b.max_unmitigated);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.counter_updates, b.counter_updates);
    EXPECT_EQ(a.srq_insertions, b.srq_insertions);
    EXPECT_EQ(a.mitigations, b.mitigations);
    EXPECT_EQ(a.ref_drains, b.ref_drains);
}

void
expectIdenticalSweeps(const std::vector<PointResult> &a,
                      const std::vector<PointResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].point_id, b[i].point_id);
        EXPECT_EQ(a[i].status, b[i].status);
        EXPECT_EQ(a[i].seed, b[i].seed);
        expectIdenticalRun(a[i].run, b[i].run, a[i].point_id);
        EXPECT_TRUE(a[i].stats == b[i].stats)
            << "stat snapshot of point " << i
            << " differs between schedules";
    }
    const StatSnapshot merged_a = test::mergeStats(a);
    const StatSnapshot merged_b = test::mergeStats(b);
    EXPECT_TRUE(merged_a == merged_b)
        << "merged stats differ between schedules";
}

TEST(RunnerDeterminism, SerialAndParallelSweepsAreBitIdentical)
{
    const auto serial = runWithJobs(1);
    const auto parallel = runWithJobs(8);
    for (const auto &r : serial) {
        ASSERT_EQ(r.status, PointStatus::kOk)
            << "point " << r.point_id << ": " << r.error;
    }
    expectIdenticalSweeps(serial, parallel);
}

TEST(RunnerDeterminism, ParallelSchedulesAreRepeatable)
{
    // Two 8-worker executions hand points to workers in different
    // orders; results must not differ.
    expectIdenticalSweeps(runWithJobs(8), runWithJobs(8));
}

TEST(RunnerDeterminism, OddWorkerCountMatchesToo)
{
    // 3 workers over 6 points: each worker claims two points, in an
    // order set by timing, and the last claims race for the tail.
    expectIdenticalSweeps(runWithJobs(1), runWithJobs(3));
}

TEST(RunnerDeterminism, MergedStatsCoverEveryPoint)
{
    const auto results = runWithJobs(8);
    const StatSnapshot merged = test::mergeStats(results);
    ASSERT_TRUE(merged.has("subch0.dram.acts"));
    std::uint64_t sum = 0;
    for (const auto &r : results) {
        sum += r.stats.scalar("subch0.dram.acts");
    }
    EXPECT_EQ(merged.scalar("subch0.dram.acts"), sum);
}

} // namespace
} // namespace mopac
