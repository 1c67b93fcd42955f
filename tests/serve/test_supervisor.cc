/**
 * @file
 * Supervisor tests: retry/backoff determinism (same seed + same
 * injected worker-failure schedule => identical retry traces and
 * bit-identical final manifests at ANY worker count), quarantine
 * after max_strikes, the hang watchdog (SIGSTOPped worker), and
 * store-served reruns, including one handed off from a journaled
 * Runner sweep.
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

#include "common/serialize.hh"
#include "serve/supervisor.hh"
#include "sim/experiment.hh"
#include "sim/result_store.hh"
#include "sim/sharding.hh"
#include "sim/stop.hh"

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
fastOptions(unsigned workers)
{
    SupervisorOptions opts;
    opts.workers = workers;
    opts.heartbeat_sec = 0.1;
    opts.hang_timeout_sec = 20.0;
    opts.backoff_base_sec = 0.01;
    opts.backoff_cap_sec = 0.04;
    return opts;
}

/** Deterministic bytes of a result (wall clock zeroed). */
std::vector<std::uint8_t>
canonicalBytes(const PointResult &result)
{
    PointResult canon = result;
    canon.wall_seconds = 0.0;
    Serializer ser;
    savePointResult(ser, canon);
    return ser.finish(FileKind::kCacheEntry, canon.point_id);
}

void
expectSameRetryTraces(const SupervisorReport &a,
                      const SupervisorReport &b)
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
    const Supervisor a(fastOptions(1));
    const Supervisor b(fastOptions(4)); // worker count is irrelevant
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

    SupervisorOptions reseeded = fastOptions(1);
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

    std::vector<SupervisorReport> reports;
    for (unsigned workers : {1u, 2u, 4u}) {
        Supervisor sup(fastOptions(workers));
        sup.setFailSchedule(schedule);
        reports.push_back(sup.run(points));
    }

    for (const SupervisorReport &report : reports) {
        EXPECT_EQ(report.exitCode(), 0);
        EXPECT_EQ(report.workers_crashed, 3u);
        ASSERT_EQ(report.results.size(), points.size());
        // The scripted failures and only they appear in the trace.
        ASSERT_EQ(report.retries.size(), 2u);
        EXPECT_EQ(report.retries.at(points[0].point_id).size(), 1u);
        EXPECT_EQ(report.retries.at(points[2].point_id).size(), 2u);
        EXPECT_EQ(report.retries.at(points[2].point_id)[1].reason,
                  "crash");
    }
    expectSameRetryTraces(reports[0], reports[1]);
    expectSameRetryTraces(reports[0], reports[2]);

    // The manifests are bit-identical to each other AND to a clean
    // serial in-process run: retries rerun with the same simulation
    // seed, so a worker death never changes results.
    RunnerOptions serial;
    serial.jobs = 1;
    const std::vector<PointResult> clean = Runner(serial).run(points);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto want = canonicalBytes(clean[i]);
        EXPECT_EQ(canonicalBytes(reports[0].results[i]), want);
        EXPECT_EQ(canonicalBytes(reports[1].results[i]), want);
        EXPECT_EQ(canonicalBytes(reports[2].results[i]), want);
    }
}

TEST(SupervisorRetry, MaxStrikesQuarantinesThePoint)
{
    const std::vector<ExperimentPoint> points = tinySweep();
    SupervisorOptions opts = fastOptions(2);
    opts.max_strikes = 2;
    Supervisor sup(opts);
    sup.setFailSchedule({
        {{points[1].point_id, 1}, FailAction::kKillWorker},
        {{points[1].point_id, 2}, FailAction::kKillWorker},
    });
    const SupervisorReport report = sup.run(points);

    EXPECT_EQ(report.sources[1], PointSource::kQuarantine);
    EXPECT_EQ(report.results[1].status, PointStatus::kFailed);
    EXPECT_EQ(report.results[1].attempts, 2u);
    EXPECT_EQ(report.exitCode(), sweepstop::kQuarantinedExit);
    EXPECT_EQ(report.phase(), JobPhase::kDegraded);
    // The other points are untouched by the neighbour's quarantine.
    for (std::size_t i : {0u, 2u, 3u}) {
        EXPECT_EQ(report.results[i].status, PointStatus::kOk);
    }
}

TEST(SupervisorRetry, HangWatchdogKillsAndReschedulesAStoppedWorker)
{
    const std::vector<ExperimentPoint> points = tinySweep();
    SupervisorOptions opts = fastOptions(2);
    // Calibrate the hang deadline to this host: sanitizers slow a
    // point by an order of magnitude, and a fixed deadline would
    // hang-kill legitimate workers there.  A probe run prices one
    // point; 10x that (plus fork/startup slack) keeps real points
    // comfortably inside the deadline while the SIGSTOPped worker
    // still trips it.
    RunnerOptions probe_opts;
    probe_opts.jobs = 1;
    const std::vector<PointResult> probe =
        Runner(probe_opts).run({points[0]});
    opts.hang_timeout_sec =
        std::clamp(10.0 * probe[0].wall_seconds + 1.0, 1.5, 30.0);
    Supervisor sup(opts);
    sup.setFailSchedule({
        {{points[3].point_id, 1}, FailAction::kStopWorker},
    });
    const SupervisorReport report = sup.run(points);

    EXPECT_EQ(report.exitCode(), 0);
    EXPECT_GE(report.workers_hung_killed, 1u);
    const auto &trace = report.retries.at(points[3].point_id);
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace[0].reason, "hang");
    EXPECT_EQ(report.results[3].status, PointStatus::kOk);
}

TEST(SupervisorCache, SecondRunIsServedEntirelyFromCache)
{
    const std::vector<ExperimentPoint> points = tinySweep();
    const std::string dir =
        ::testing::TempDir() + "mopac_serve_supcache";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    ResultStore store(dir);

    Supervisor first(fastOptions(2));
    first.setStore(&store);
    const SupervisorReport a = first.run(points);
    EXPECT_EQ(a.cache_hits, 0u);
    EXPECT_EQ(a.exitCode(), 0);

    Supervisor second(fastOptions(2));
    second.setStore(&store);
    const SupervisorReport b = second.run(points);
    EXPECT_EQ(b.cache_hits, points.size());
    EXPECT_EQ(b.workers_forked, 0u) << "cache hits must not fork";
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(b.sources[i], PointSource::kCache);
        EXPECT_EQ(canonicalBytes(a.results[i]),
                  canonicalBytes(b.results[i]));
    }
}

TEST(SupervisorCache, JournaledRunnerSweepHandsOffWithoutForking)
{
    // One store, two executors: a sweep journaled through the
    // in-process Runner is served whole to a Supervisor run on the
    // same directory -- no worker is ever forked.
    sweepstop::reset();
    const std::vector<ExperimentPoint> points = tinySweep();
    const std::string dir =
        ::testing::TempDir() + "mopac_serve_handoff";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);

    RunnerOptions ropts;
    ropts.jobs = 2;
    const JournaledSweepResult journaled =
        Runner(ropts).runJournaled(points, dir);
    ASSERT_TRUE(journaled.complete());

    ResultStore store(dir);
    Supervisor sup(fastOptions(2));
    sup.setStore(&store);
    const SupervisorReport report = sup.run(points);
    EXPECT_EQ(report.workers_forked, 0u);
    EXPECT_EQ(report.cache_hits, points.size());
    EXPECT_EQ(report.exitCode(), 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(canonicalBytes(report.results[i]),
                  canonicalBytes(journaled.results[i]));
    }
}

} // namespace
