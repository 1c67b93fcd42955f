/**
 * @file
 * Result-store tests.
 *
 * Journal.*: a journaled Runner sweep resumes by serving finished
 * points from the store -- merged stats are bit-identical to an
 * uninterrupted run at any jobs count, a store written by another
 * sweep serves only the cells the two share, and record-level damage
 * (bit flips, torn tails at any truncation offset) heals to "re-run
 * that point" with identical final results.
 *
 * ResultCache.*: the store as a content-addressed cache -- hit, miss,
 * relabelling, non-OK results, self-heal.
 *
 * ResultStore.*: the key is the point's snapshot config hash (but not
 * the run-loop engine: a tick-engine entry serves an event-engine
 * sweep), foreign entries are never served, healing prints nothing,
 * concurrent puts from a 4-job
 * sweep land whole, and a sweep writes the same bytes at any jobs
 * count (the tsan-checkpoint preset runs this file under
 * ThreadSanitizer).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "point_bytes.hh"
#include "scratch_dir.hh"
#include "sim/result_store.hh"
#include "sim/runner.hh"
#include "sim/stop.hh"

namespace mopac
{
namespace
{

SystemConfig
quickConfig(MitigationKind kind, std::uint32_t trh = 500)
{
    SystemConfig cfg = makeConfig(kind, trh);
    cfg.insts_per_core = 6000;
    cfg.warmup_insts = 600;
    cfg.num_cores = 2;
    return cfg;
}

std::vector<ExperimentPoint>
samplePoints()
{
    const char *workloads[] = {"mcf", "bwaves", "omnetpp", "xz"};
    const MitigationKind kinds[] = {MitigationKind::kNone,
                                    MitigationKind::kMopacC};
    std::vector<ExperimentPoint> points;
    for (const char *wl : workloads) {
        for (MitigationKind kind : kinds) {
            ExperimentPoint p;
            p.point_id = points.size();
            p.config_label = toString(kind);
            p.workload = wl;
            p.cfg = quickConfig(kind);
            points.push_back(std::move(p));
        }
    }
    return points;
}

/** A point with an active fault plan (cache-identity tests). */
ExperimentPoint
faultPoint(std::uint64_t id)
{
    ExperimentPoint p;
    p.point_id = id;
    p.config_label = "mopac-c@500";
    p.workload = "mcf";
    p.cfg = makeConfig(MitigationKind::kMopacC, 500);
    p.cfg.seed = 0xfeedbeef + id; // distinct cache identity per id
    p.cfg.insts_per_core = 12345;
    p.cfg.warmup_insts = 678;
    p.cfg.faults = FaultPlan::single(FaultKind::kAlertDrop, 0.125);
    return p;
}

PointResult
okResult(const ExperimentPoint &point)
{
    PointResult r;
    r.point_id = point.point_id;
    r.status = PointStatus::kOk;
    r.seed = point.cfg.seed;
    r.wall_seconds = 0.25;
    r.run.ipcs = {1.25};
    return r;
}

/** Path of @p point's entry (or quarantine artifact) in @p dir. */
std::string
entryFile(const std::string &dir, const ExperimentPoint &point,
          bool quarantine = false)
{
    char name[24];
    std::snprintf(name, sizeof(name), "%016llx.rec",
                  static_cast<unsigned long long>(
                      ResultStore::keyFor(point)));
    return dir + (quarantine ? "/quarantine/" : "/") + name;
}

void
expectSameStats(const StatSnapshot &a, const StatSnapshot &b)
{
    std::ostringstream sa;
    std::ostringstream sb;
    a.dump(sa);
    b.dump(sb);
    EXPECT_EQ(sa.str(), sb.str());
}

/** Every path under @p dir, relative to it, with its bytes. */
std::map<std::string, std::vector<std::uint8_t>>
storeFiles(const std::string &dir)
{
    std::map<std::string, std::vector<std::uint8_t>> files;
    for (const auto &ent :
         std::filesystem::recursive_directory_iterator(dir)) {
        const std::string rel =
            std::filesystem::relative(ent.path(), dir).string();
        files[rel] = ent.is_regular_file()
                         ? readFileBytes(ent.path().string())
                         : std::vector<std::uint8_t>{};
    }
    return files;
}

/** A journaled sweep: the driver over the result store at @p dir. */
SweepReport
journaled(const RunnerOptions &opts,
          const std::vector<ExperimentPoint> &points,
          const std::string &dir,
          const Runner::ProgressFn &progress = nullptr)
{
    ResultStore store(dir);
    return Runner(opts).sweep(points, &store, progress);
}

/** Points a sweep executed: neither served from the store nor left
 *  pending. */
std::uint64_t
executed(const SweepReport &report)
{
    const SweepCounts counts = report.counts();
    return counts.total - counts.cached - counts.pending;
}

// ------------------------------------------------------------------
// Journaled Runner sweeps
// ------------------------------------------------------------------

TEST(Journal, PointResultRoundTripsThroughTheContainer)
{
    PointResult result;
    result.point_id = 17;
    result.status = PointStatus::kOk;
    result.seed = 424242;
    result.wall_seconds = 1.5;
    result.outcome = OutcomeClass::kDegraded;
    result.run.ipcs = {0.5, 1.25};
    result.run.cycles = 123456;
    result.run.acts = 999;
    result.run.rbhr = 0.75;

    Serializer ser;
    savePointResult(ser, result);
    Deserializer des(ser.finish(FileKind::kCacheEntry, 7),
                     FileKind::kCacheEntry, 7);
    const PointResult loaded = loadPointResult(des);
    des.finish();

    EXPECT_EQ(loaded.point_id, result.point_id);
    EXPECT_EQ(loaded.status, result.status);
    EXPECT_EQ(loaded.seed, result.seed);
    // Host wall time is not a result: the entry leaves it out.
    EXPECT_EQ(loaded.wall_seconds, 0.0);
    EXPECT_EQ(loaded.outcome, result.outcome);
    EXPECT_EQ(loaded.run.ipcs, result.run.ipcs);
    EXPECT_EQ(loaded.run.cycles, result.run.cycles);
    EXPECT_EQ(loaded.run.acts, result.run.acts);
    EXPECT_EQ(loaded.run.rbhr, result.run.rbhr);
}

TEST(Journal, CompletesAndThenResumesWithNothingToDo)
{
    const test::ScratchDir scratch;
    sweepstop::reset();
    const auto points = samplePoints();
    const std::string dir = scratch.path("complete");

    RunnerOptions opts;
    opts.jobs = 2;
    const SweepReport first = journaled(opts, points, dir);
    EXPECT_FALSE(first.stopped);
    EXPECT_EQ(executed(first), points.size());
    EXPECT_EQ(first.cache_hits, 0u);

    // Re-invoking is pure store replay: nothing executes.
    const SweepReport second = journaled(opts, points, dir);
    EXPECT_FALSE(second.stopped);
    EXPECT_EQ(executed(second), 0u);
    EXPECT_EQ(second.cache_hits, points.size());
}

TEST(Journal, InterruptedSweepResumesToIdenticalMergedStats)
{
    const test::ScratchDir scratch;
    sweepstop::reset();
    const auto points = samplePoints();

    // Reference: uninterrupted, single worker.
    RunnerOptions ref_opts;
    ref_opts.jobs = 1;
    const StatSnapshot reference =
        Runner::mergeStats(Runner(ref_opts).run(points));

    // Interrupted run: stop after the first few points finish.
    const std::string dir = scratch.path("resume");
    RunnerOptions opts;
    opts.jobs = 2;
    std::atomic<unsigned> finished{0};
    const SweepReport partial = journaled(
        opts, points, dir, [&finished](const ExperimentPoint &,
                                       const PointResult &) {
            if (finished.fetch_add(1) + 1 >= 3) {
                sweepstop::requestStop();
            }
        });
    EXPECT_TRUE(partial.stopped);
    EXPECT_GT(partial.counts().pending, 0u);
    EXPECT_LT(executed(partial), points.size());

    // Resume at a DIFFERENT jobs count; merged stats must still be
    // bit-identical to the uninterrupted single-threaded reference.
    sweepstop::reset();
    RunnerOptions resume_opts;
    resume_opts.jobs = 3;
    const SweepReport full = journaled(resume_opts, points, dir);
    EXPECT_FALSE(full.stopped);
    EXPECT_EQ(full.cache_hits + executed(full), points.size());
    EXPECT_GT(full.cache_hits, 0u);
    expectSameStats(reference, Runner::mergeStats(full.results));

    // Per-point results are also identical to a plain run.
    const std::vector<PointResult> plain =
        Runner(ref_opts).run(points);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(full.results[i].status, plain[i].status) << i;
        EXPECT_EQ(full.results[i].run.cycles, plain[i].run.cycles)
            << i;
        EXPECT_EQ(full.results[i].run.acts, plain[i].run.acts) << i;
    }
}

TEST(Journal, ServesOnlyTheCellsADifferentSweepShares)
{
    const test::ScratchDir scratch;
    sweepstop::reset();
    const auto sweep_a = samplePoints();
    const std::string dir = scratch.path("mismatch");
    RunnerOptions opts;
    opts.jobs = 1;
    (void)journaled(opts, sweep_a, dir);

    // Sweep B: the same grid with two cells changed (a new threshold,
    // a new workload) and the point ids shifted.  Resuming B from A's
    // store serves exactly the cells the sweeps share and runs the
    // two new ones.
    auto sweep_b = sweep_a;
    sweep_b[0].cfg.trh += 100;
    sweep_b[5].workload = "lbm";
    for (ExperimentPoint &point : sweep_b) {
        point.point_id += 100;
    }
    const SweepReport resumed = journaled(opts, sweep_b, dir);
    EXPECT_FALSE(resumed.stopped);
    EXPECT_EQ(executed(resumed), 2u);
    EXPECT_EQ(resumed.cache_hits, sweep_b.size() - 2);
    for (std::size_t i = 0; i < sweep_b.size(); ++i) {
        EXPECT_EQ(resumed.results[i].point_id, sweep_b[i].point_id);
    }

    // B's merged stats equal a clean run of B.
    const std::vector<PointResult> clean = Runner(opts).run(sweep_b);
    expectSameStats(Runner::mergeStats(clean),
                    Runner::mergeStats(resumed.results));
}

TEST(Journal, ResumeUnderATighterCycleGuardReRunsThePoint)
{
    const test::ScratchDir scratch;
    // A result is only reused by a point that would run the same way:
    // a kOk point finished without a cycle guard must not be served to
    // a resume whose config's own guard would time it out.
    sweepstop::reset();
    const std::vector<ExperimentPoint> points = {samplePoints()[0]};
    const std::string dir = scratch.path("guard");
    RunnerOptions opts;
    opts.jobs = 1;
    const SweepReport first = journaled(opts, points, dir);
    ASSERT_EQ(first.results[0].status, PointStatus::kOk);

    std::vector<ExperimentPoint> guarded = points;
    guarded[0].cfg.max_cycles = 500;
    const SweepReport second = journaled(opts, guarded, dir);
    EXPECT_EQ(second.cache_hits, 0u);
    EXPECT_EQ(executed(second), 1u);
    EXPECT_EQ(second.results[0].status, PointStatus::kTimedOut);

    // The unguarded result is still there for unguarded resumes.
    const SweepReport third = journaled(opts, points, dir);
    EXPECT_EQ(third.cache_hits, 1u);
    EXPECT_EQ(third.results[0].status, PointStatus::kOk);
}

TEST(Journal, HealsACorruptPointRecordByReRunningIt)
{
    const test::ScratchDir scratch;
    sweepstop::reset();
    const auto points = samplePoints();
    const std::string dir = scratch.path("corrupt");
    RunnerOptions opts;
    opts.jobs = 1;
    const SweepReport first = journaled(opts, points, dir);
    EXPECT_FALSE(first.stopped);

    // Flip one payload bit in a finished record: the store heals
    // (renames the file *.corrupt, re-runs that one point) rather
    // than bricking the whole sweep.
    const std::string victim = entryFile(dir, points[0]);
    std::vector<std::uint8_t> image = readFileBytes(victim);
    image[image.size() / 2] ^= 0x10;
    atomicWriteFile(victim, image);

    const SweepReport healed = journaled(opts, points, dir);
    EXPECT_FALSE(healed.stopped);
    EXPECT_EQ(executed(healed), 1u);
    EXPECT_EQ(healed.cache_hits, points.size() - 1);
    EXPECT_TRUE(fileExists(victim + ".corrupt"));

    // The healed sweep is bit-identical to the uninterrupted one.
    expectSameStats(Runner::mergeStats(first.results),
                    Runner::mergeStats(healed.results));
}

TEST(Journal, HealsATornTailRecordAtEveryTruncationOffset)
{
    const test::ScratchDir scratch;
    // A torn record -- the writer died mid-write, leaving a prefix of
    // the entry -- must heal to "re-run the point" at EVERY truncation
    // offset.  One-point sweep keeps the loop cheap.
    sweepstop::reset();
    const std::vector<ExperimentPoint> points = {samplePoints()[0]};
    const std::string dir = scratch.path("torn");
    RunnerOptions opts;
    opts.jobs = 1;
    const SweepReport first = journaled(opts, points, dir);
    ASSERT_FALSE(first.stopped);

    const std::string victim = entryFile(dir, points[0]);
    const std::vector<std::uint8_t> pristine = readFileBytes(victim);
    ASSERT_GT(pristine.size(), 0u);

    for (std::size_t len = 0; len < pristine.size(); ++len) {
        std::vector<std::uint8_t> torn(pristine.begin(),
                                       pristine.begin() + len);
        atomicWriteFile(victim, torn);
        ResultStore store(dir);
        EXPECT_FALSE(store.lookup(points[0]).has_value())
            << "offset " << len;
        EXPECT_EQ(store.healed(), 1u) << "offset " << len;
        EXPECT_FALSE(fileExists(victim)) << "offset " << len;
        std::remove((victim + ".corrupt").c_str());
    }

    // After the last heal, a resume re-runs the point and converges
    // on the same results as the clean first pass.
    const SweepReport again = journaled(opts, points, dir);
    EXPECT_FALSE(again.stopped);
    EXPECT_EQ(executed(again), 1u);
    expectSameStats(Runner::mergeStats(first.results),
                    Runner::mergeStats(again.results));
}

TEST(Journal, QuarantinedPointsReRunOnResume)
{
    const test::ScratchDir scratch;
    sweepstop::reset();
    auto points = samplePoints();
    // Sabotage one point so it fails and lands in quarantine/.
    points[2].workload = "no-such-workload";
    const std::string dir = scratch.path("quarantine");
    RunnerOptions opts;
    opts.jobs = 1;
    const SweepReport first = journaled(opts, points, dir);
    EXPECT_FALSE(first.stopped);
    EXPECT_EQ(first.results[2].status, PointStatus::kFailed);
    EXPECT_TRUE(fileExists(entryFile(dir, points[2], true)));
    EXPECT_FALSE(fileExists(entryFile(dir, points[2])));

    // On resume the failed point re-runs (it may be fixed by now);
    // the finished ones do not.
    const SweepReport second = journaled(opts, points, dir);
    EXPECT_EQ(second.cache_hits, points.size() - 1);
    EXPECT_EQ(executed(second), 1u);
}

// ------------------------------------------------------------------
// The store as a content-addressed cache
// ------------------------------------------------------------------

TEST(ResultCache, MissThenHitThenKeyIdentity)
{
    const test::ScratchDir scratch;
    ResultStore store(scratch.path("cache_hit"));
    const ExperimentPoint point = faultPoint(5);
    EXPECT_FALSE(store.lookup(point).has_value());

    store.put(point, okResult(point));
    const auto back = store.lookup(point);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->status, PointStatus::kOk);
    EXPECT_DOUBLE_EQ(back->run.ipcs.at(0), 1.25);

    // Identity is (config, workload), not the point id: the same cell
    // under a different id hits and is re-labelled with the new id.
    ExperimentPoint renumbered = point;
    renumbered.point_id = 99;
    const auto relabeled = store.lookup(renumbered);
    ASSERT_TRUE(relabeled.has_value());
    EXPECT_EQ(relabeled->point_id, 99u);

    // A different workload is a different cell entirely.
    ExperimentPoint other = point;
    other.workload = "xz";
    EXPECT_NE(ResultStore::keyFor(other),
              ResultStore::keyFor(point));
    EXPECT_FALSE(store.lookup(other).has_value());
}

TEST(ResultCache, NonOkResultsAreNeverStored)
{
    const test::ScratchDir scratch;
    // A non-OK result is kept only as its quarantine replay artifact,
    // never as a servable entry.
    const std::string dir = scratch.path("cache_nonok");
    ResultStore store(dir);
    const ExperimentPoint point = faultPoint(6);
    PointResult bad = okResult(point);
    bad.status = PointStatus::kFailed;
    bad.outcome = OutcomeClass::kViolated;
    store.put(point, bad);
    EXPECT_FALSE(store.lookup(point).has_value());
    EXPECT_FALSE(fileExists(entryFile(dir, point)));
    EXPECT_TRUE(fileExists(entryFile(dir, point, true)));
}

TEST(ResultCache, CorruptEntryHealsToAMiss)
{
    const test::ScratchDir scratch;
    const std::string dir = scratch.path("cache_heal");
    ResultStore store(dir);
    const ExperimentPoint point = faultPoint(7);
    store.put(point, okResult(point));
    ASSERT_TRUE(store.lookup(point).has_value());

    // Flip one payload byte in the single entry on disk.
    const std::string entry = entryFile(dir, point);
    {
        std::fstream f(entry, std::ios::in | std::ios::out |
                                  std::ios::binary);
        f.seekg(0, std::ios::end);
        const std::streamoff size = f.tellg();
        f.seekp(size / 2);
        f.put('\x7f');
    }

    EXPECT_FALSE(store.lookup(point).has_value());
    EXPECT_EQ(store.healed(), 1u);
    EXPECT_FALSE(fileExists(entry));
    // The poisoned file is moved out of the entry namespace, so a
    // re-put works and subsequent lookups hit again.
    store.put(point, okResult(point));
    EXPECT_TRUE(store.lookup(point).has_value());
}

// ------------------------------------------------------------------
// Keying and foreign entries
// ------------------------------------------------------------------

TEST(ResultStore, KeyIsThePointAsExecuted)
{
    // The config alone decides what a point produces, so the key is
    // its snapshot config hash: for a clean point, one with its own
    // cycle guard, and one with a fault plan.
    const ExperimentPoint clean = samplePoints()[0];
    ExperimentPoint bounded = clean;
    bounded.cfg.max_cycles = 5000;
    const ExperimentPoint faulty = faultPoint(1);
    for (const ExperimentPoint &p : {clean, bounded, faulty}) {
        EXPECT_EQ(ResultStore::keyFor(p),
                  snapshotConfigHash(p.cfg, p.workload));
    }

    // A tighter cycle guard is a different point.
    ExperimentPoint tighter = bounded;
    tighter.cfg.max_cycles = 1000;
    EXPECT_NE(ResultStore::keyFor(tighter), ResultStore::keyFor(bounded));
    EXPECT_NE(ResultStore::keyFor(bounded), ResultStore::keyFor(clean));
}

TEST(ResultStore, LookupHealsCorruptEntriesSilently)
{
    // Healing is counted, not printed: resuming a store written in an
    // older format heals every entry, and the sweep's caller reports
    // healed() in one line.
    const test::ScratchDir scratch;
    const std::string dir = scratch.path("silent_heal");
    constexpr unsigned kEntries = 5;
    std::vector<ExperimentPoint> points;
    {
        ResultStore store(dir);
        for (unsigned k = 0; k < kEntries; ++k) {
            points.push_back(faultPoint(20 + k));
            store.put(points.back(), okResult(points.back()));
        }
    }
    for (const ExperimentPoint &point : points) {
        std::vector<std::uint8_t> image =
            readFileBytes(entryFile(dir, point));
        image[image.size() / 2] ^= 0x10;
        atomicWriteFile(entryFile(dir, point), image);
    }

    ResultStore store(dir);
    ::testing::internal::CaptureStderr();
    for (const ExperimentPoint &point : points) {
        EXPECT_FALSE(store.lookup(point).has_value());
    }
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(store.healed(), kEntries);
}

TEST(ResultStore, TickEngineEntriesServeAnEventEngineSweep)
{
    // The engines are bit-identical, so the engine is not part of the
    // key: a store written by the per-cycle reference loop serves an
    // event-engine sweep, and what it serves is what the event engine
    // computes.
    const test::ScratchDir scratch;
    sweepstop::reset();
    std::vector<ExperimentPoint> points = samplePoints();
    points.resize(4);
    const std::string dir = scratch.path("cross_engine");
    RunnerOptions opts;
    opts.jobs = 2;

    for (ExperimentPoint &point : points) {
        point.cfg.engine = SimEngine::kTick;
    }
    const SweepReport tick = journaled(opts, points, dir);
    EXPECT_EQ(executed(tick), points.size());

    for (ExperimentPoint &point : points) {
        point.cfg.engine = SimEngine::kEvent;
    }
    const SweepReport served = journaled(opts, points, dir);
    EXPECT_EQ(served.cache_hits, points.size());
    EXPECT_EQ(executed(served), 0u);

    const std::vector<PointResult> fresh = Runner(opts).run(points);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(served.sources[i], PointSource::kCache) << i;
        EXPECT_EQ(served.results[i].status, PointStatus::kOk) << i;
        EXPECT_EQ(test::canonicalBytes(served.results[i]),
                  test::canonicalBytes(fresh[i]))
            << i;
    }
}

TEST(ResultStore, PlantedEntryWithAForeignSignatureHealsToAMiss)
{
    const test::ScratchDir scratch;
    // An entry under the right key and envelope, with a valid CRC,
    // whose stored identity belongs to a different point (an FNV
    // collision, or a file copied in by hand) is never served.
    const std::string dir = scratch.path("planted");
    const ExperimentPoint point = faultPoint(8);
    ExperimentPoint other = point;
    other.cfg.trh += 250;

    {
        ResultStore store(dir);
        store.put(other, okResult(other));
    }
    const std::string planted = entryFile(dir, point);
    std::filesystem::rename(entryFile(dir, other), planted);
    // Re-seal the moved bytes under the victim's key (header bytes
    // 16..23) with a fresh CRC trailer, so only the stored identity
    // is wrong.
    std::vector<std::uint8_t> image = readFileBytes(planted);
    const std::uint64_t key = ResultStore::keyFor(point);
    for (unsigned b = 0; b < 8; ++b) {
        image[16 + b] = static_cast<std::uint8_t>(key >> (8 * b));
    }
    const std::uint32_t crc = crc32(image.data(), image.size() - 4);
    for (unsigned b = 0; b < 4; ++b) {
        image[image.size() - 4 + b] =
            static_cast<std::uint8_t>(crc >> (8 * b));
    }
    atomicWriteFile(planted, image);

    ResultStore store(dir);
    EXPECT_EQ(store.healed(), 0u) << "the envelope is valid";
    EXPECT_FALSE(store.lookup(point).has_value());
    EXPECT_EQ(store.healed(), 1u);
    EXPECT_FALSE(fileExists(planted));
    EXPECT_TRUE(fileExists(planted + ".corrupt"));
    EXPECT_FALSE(store.lookup(point).has_value());
}

TEST(ResultStore, ConcurrentPutsFromAFourJobSweepKeepExactAccounting)
{
    const test::ScratchDir scratch;
    sweepstop::reset();
    const auto points = samplePoints();
    const std::string dir = scratch.path("concurrent");
    RunnerOptions opts;
    opts.jobs = 4;
    const SweepReport first = journaled(opts, points, dir);
    ASSERT_FALSE(first.stopped);
    EXPECT_EQ(executed(first), points.size());

    // Every concurrent put landed whole: the directory holds exactly
    // one entry per point (no temp files, nothing torn) and a
    // reopened store serves every one without healing.
    ResultStore store(dir);
    EXPECT_EQ(storeFiles(dir).size(), points.size() + 1)
        << "one entry per point plus quarantine/";
    for (const ExperimentPoint &point : points) {
        EXPECT_TRUE(store.lookup(point).has_value());
    }
    EXPECT_EQ(store.healed(), 0u);

    const SweepReport second = journaled(opts, points, dir);
    EXPECT_EQ(executed(second), 0u);
    expectSameStats(Runner::mergeStats(first.results),
                    Runner::mergeStats(second.results));
}

TEST(ResultStore, SweepsAtOneAndFourJobsWriteIdenticalStores)
{
    // An entry is a pure function of the point and its result: no
    // wall time, no insertion order.  The same sweep at jobs 1 and
    // jobs 4 into two fresh stores leaves byte-identical files,
    // quarantine artifacts included.
    const test::ScratchDir scratch;
    sweepstop::reset();
    auto points = samplePoints();
    points[3].workload = "no-such-workload";
    std::map<std::string, std::vector<std::uint8_t>> stores[2];
    const unsigned jobs[2] = {1, 4};
    for (unsigned k = 0; k < 2; ++k) {
        const std::string dir =
            scratch.path("jobs" + std::to_string(jobs[k]));
        RunnerOptions opts;
        opts.jobs = jobs[k];
        const SweepReport report = journaled(opts, points, dir);
        EXPECT_EQ(executed(report), points.size());
        EXPECT_EQ(report.results[3].status, PointStatus::kFailed);
        stores[k] = storeFiles(dir);
    }
    // points.size() files, plus the quarantine/ directory itself.
    ASSERT_EQ(stores[0].size(), points.size() + 1);
    EXPECT_TRUE(stores[0].count("quarantine"));
    for (const auto &[rel, bytes] : stores[0]) {
        const auto it = stores[1].find(rel);
        ASSERT_NE(it, stores[1].end()) << rel;
        EXPECT_TRUE(it->second == bytes) << rel << " differs";
    }
    EXPECT_EQ(stores[0].size(), stores[1].size());
}

} // namespace
} // namespace mopac
