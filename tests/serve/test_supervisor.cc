/**
 * @file
 * Supervisor tests: the process pool under the sweep driver.  Retry/
 * backoff determinism (same seed + same injected worker-failure
 * schedule => identical retry traces and bit-identical final
 * manifests at ANY worker count), quarantine after max_strikes, the
 * hang watchdog (SIGSTOPped worker), and store-served reruns,
 * including one handed off from a thread-pool sweep.
 *
 * Every test scripts failures through setFailSchedule() rather than
 * chaos rates, so each asserted retry is guaranteed, not
 * probabilistic.
 */

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "point_bytes.hh"
#include "scratch_dir.hh"
#include "serve/supervisor.hh"
#include "sim/experiment.hh"
#include "sim/result_store.hh"
#include "sim/stop.hh"
#include "sim/sweep.hh"

namespace
{

using namespace mopac;
using namespace mopac::serve;

/** A tiny 4-point clean sweep (2 configs x 2 workloads). */
std::vector<ExperimentPoint>
tinySweep()
{
    SweepSpec spec;
    spec.master_seed = 17;
    for (std::uint32_t trh : {500u, 1000u}) {
        SystemConfig cfg = makeConfig(MitigationKind::kMopacD, trh);
        cfg.insts_per_core = 3000;
        cfg.warmup_insts = 300;
        spec.configs.push_back(
            {"mopac-d@" + std::to_string(trh), cfg});
    }
    spec.workloads = {"mcf", "xz"};
    return spec.expand();
}

SupervisorOptions
fastOptions()
{
    SupervisorOptions opts;
    opts.heartbeat_sec = 0.1;
    opts.hang_timeout_sec = 20.0;
    opts.backoff_base_sec = 0.01;
    opts.backoff_cap_sec = 0.04;
    return opts;
}

/** Run @p points through the driver on @p sup with @p workers. */
SweepReport
supervised(Supervisor &sup, unsigned workers,
           const std::vector<ExperimentPoint> &points,
           ResultStore *store = nullptr)
{
    RunnerOptions opts;
    opts.jobs = workers;
    return Runner(opts).sweep(points, store, nullptr, &sup);
}

void
expectSameRetryTraces(const SupervisorStats &a,
                      const SupervisorStats &b)
{
    ASSERT_EQ(a.retries.size(), b.retries.size());
    for (const auto &[point_id, trace] : a.retries) {
        const auto it = b.retries.find(point_id);
        ASSERT_NE(it, b.retries.end()) << "point " << point_id;
        ASSERT_EQ(trace.size(), it->second.size())
            << "point " << point_id;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            EXPECT_EQ(trace[i].attempt, it->second[i].attempt);
            EXPECT_DOUBLE_EQ(trace[i].delay_sec,
                             it->second[i].delay_sec);
            EXPECT_EQ(trace[i].reason, it->second[i].reason);
        }
    }
}

TEST(SupervisorBackoff, DelayIsAPureFunctionOfSeedPointAndAttempt)
{
    const Supervisor a(fastOptions());
    SupervisorOptions other = fastOptions();
    other.max_strikes = 7; // Only the backoff knobs matter.
    const Supervisor b(other);
    for (std::uint64_t point : {0ull, 7ull}) {
        for (std::uint32_t attempt : {1u, 2u, 5u}) {
            const double d = a.backoffDelay(point, attempt);
            EXPECT_DOUBLE_EQ(d, b.backoffDelay(point, attempt));
            // Jittered capped exponential: 0.5x..1.5x of the ideal.
            const double ideal =
                std::min(0.04, 0.01 * (1 << (attempt - 1)));
            EXPECT_GE(d, 0.5 * ideal);
            EXPECT_LE(d, 1.5 * ideal);
        }
    }

    SupervisorOptions reseeded = fastOptions();
    reseeded.backoff_seed ^= 0x5eed;
    const Supervisor c(reseeded);
    bool any_differs = false;
    for (std::uint32_t attempt : {1u, 2u, 5u}) {
        any_differs = any_differs ||
                      a.backoffDelay(0, attempt) !=
                          c.backoffDelay(0, attempt);
    }
    EXPECT_TRUE(any_differs) << "jitter ignores backoff_seed";
}

TEST(SupervisorRetry, ScheduleAndManifestAreWorkerCountInvariant)
{
    const std::vector<ExperimentPoint> points = tinySweep();
    const std::map<std::pair<std::uint64_t, std::uint32_t>, FailAction>
        schedule = {
            {{points[0].point_id, 1}, FailAction::kKillWorker},
            {{points[2].point_id, 1}, FailAction::kKillWorker},
            {{points[2].point_id, 2}, FailAction::kKillWorker},
        };

    std::vector<SweepReport> reports;
    std::vector<SupervisorStats> stats;
    for (unsigned workers : {1u, 2u, 4u}) {
        Supervisor sup(fastOptions());
        sup.setFailSchedule(schedule);
        reports.push_back(supervised(sup, workers, points));
        stats.push_back(sup.stats());
    }

    for (std::size_t r = 0; r < reports.size(); ++r) {
        EXPECT_EQ(reports[r].exitCode(), 0);
        EXPECT_EQ(stats[r].workers_crashed, 3u);
        ASSERT_EQ(reports[r].results.size(), points.size());
        // The scripted failures and only they appear in the trace.
        ASSERT_EQ(stats[r].retries.size(), 2u);
        EXPECT_EQ(stats[r].retries.at(points[0].point_id).size(), 1u);
        EXPECT_EQ(stats[r].retries.at(points[2].point_id).size(), 2u);
        EXPECT_EQ(stats[r].retries.at(points[2].point_id)[1].reason,
                  "crash");
    }
    expectSameRetryTraces(stats[0], stats[1]);
    expectSameRetryTraces(stats[0], stats[2]);

    // The manifests are bit-identical to each other AND to a clean
    // serial in-process run: retries rerun with the same simulation
    // seed, so a worker death never changes results.
    RunnerOptions serial;
    serial.jobs = 1;
    const std::vector<PointResult> clean = Runner(serial).run(points);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto want = test::canonicalBytes(clean[i]);
        EXPECT_EQ(test::canonicalBytes(reports[0].results[i]), want);
        EXPECT_EQ(test::canonicalBytes(reports[1].results[i]), want);
        EXPECT_EQ(test::canonicalBytes(reports[2].results[i]), want);
    }
}

TEST(SupervisorRetry, MaxStrikesQuarantinesThePoint)
{
    const std::vector<ExperimentPoint> points = tinySweep();
    SupervisorOptions opts = fastOptions();
    opts.max_strikes = 2;
    Supervisor sup(opts);
    sup.setFailSchedule({
        {{points[1].point_id, 1}, FailAction::kKillWorker},
        {{points[1].point_id, 2}, FailAction::kKillWorker},
    });
    const SweepReport report = supervised(sup, 2, points);

    EXPECT_EQ(report.sources[1], PointSource::kQuarantine);
    EXPECT_EQ(report.results[1].status, PointStatus::kFailed);
    EXPECT_EQ(report.results[1].attempts, 2u);
    EXPECT_EQ(report.exitCode(), sweepstop::kQuarantinedExit);
    // The sweep completes degraded: every point accounted for, none
    // pending, the quarantined one among them.
    const SweepCounts counts = report.counts();
    EXPECT_EQ(counts.total, points.size());
    EXPECT_EQ(counts.pending, 0u);
    EXPECT_EQ(counts.quarantined, 1u);
    EXPECT_EQ(counts.done + counts.quarantined, counts.total);
    // The other points are untouched by the neighbour's quarantine.
    for (std::size_t i : {0u, 2u, 3u}) {
        EXPECT_EQ(report.results[i].status, PointStatus::kOk);
    }
}

TEST(SupervisorRetry, HangWatchdogKillsAndReschedulesAStoppedWorker)
{
    const std::vector<ExperimentPoint> points = tinySweep();
    SupervisorOptions opts = fastOptions();
    // A SIGSTOPped worker's messages are dropped, so the hang-kill is
    // certain however fast the point is; the deadline only has to
    // stay clear of a legitimate point, sanitizers included.
    opts.hang_timeout_sec = 3.0;
    Supervisor sup(opts);
    sup.setFailSchedule({
        {{points[3].point_id, 1}, FailAction::kStopWorker},
    });
    const SweepReport report = supervised(sup, 2, points);

    EXPECT_EQ(report.exitCode(), 0);
    EXPECT_GE(sup.stats().workers_hung_killed, 1u);
    const auto &trace = sup.stats().retries.at(points[3].point_id);
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace[0].reason, "hang");
    EXPECT_EQ(report.results[3].status, PointStatus::kOk);
}

TEST(SupervisorCache, SecondRunIsServedEntirelyFromCache)
{
    const test::ScratchDir scratch;
    const std::vector<ExperimentPoint> points = tinySweep();
    ResultStore store(scratch.path("store"));

    Supervisor first(fastOptions());
    const SweepReport a = supervised(first, 2, points, &store);
    EXPECT_EQ(a.cache_hits, 0u);
    EXPECT_EQ(a.exitCode(), 0);

    Supervisor second(fastOptions());
    const SweepReport b = supervised(second, 2, points, &store);
    EXPECT_EQ(b.cache_hits, points.size());
    EXPECT_EQ(second.stats().workers_forked, 0u)
        << "cache hits must not fork";
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(b.sources[i], PointSource::kCache);
        EXPECT_EQ(test::canonicalBytes(a.results[i]),
                  test::canonicalBytes(b.results[i]));
    }
}

TEST(SupervisorCache, JournaledRunnerSweepHandsOffWithoutForking)
{
    // One store, two pools: a sweep journaled on the thread pool is
    // served whole to a process-pool run on the same directory -- no
    // worker is ever forked.
    sweepstop::reset();
    const std::vector<ExperimentPoint> points = tinySweep();
    const test::ScratchDir scratch;
    const std::string dir = scratch.path("store");

    RunnerOptions ropts;
    ropts.jobs = 2;
    SweepReport journaled;
    {
        ResultStore store(dir);
        journaled = Runner(ropts).sweep(points, &store);
    }
    ASSERT_FALSE(journaled.stopped);

    ResultStore store(dir);
    Supervisor sup(fastOptions());
    const SweepReport report = supervised(sup, 2, points, &store);
    EXPECT_EQ(sup.stats().workers_forked, 0u);
    EXPECT_EQ(report.cache_hits, points.size());
    EXPECT_EQ(report.exitCode(), 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(test::canonicalBytes(report.results[i]),
                  test::canonicalBytes(journaled.results[i]));
    }
}

} // namespace
