/**
 * @file
 * ROB core-model tests: retirement width, load-blocking, MSHR limits,
 * dependence chains, write backpressure, IPC measurement, and the
 * MSHR index against a scan of the serialized ROB.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "core/core.hh"

namespace mopac
{
namespace
{

/** Replays scripted records, then endless plain compute. */
class ScriptTrace : public TraceSource
{
  public:
    explicit ScriptTrace(std::vector<TraceRecord> records)
        : records_(std::move(records))
    {
    }

    TraceRecord
    next() override
    {
        if (pos_ < records_.size()) {
            return records_[pos_++];
        }
        TraceRecord filler;
        filler.inst_gap = 1000000;
        filler.line_addr = 0;
        return filler;
    }

  private:
    std::vector<TraceRecord> records_;
    std::size_t pos_ = 0;
};

/** Accepts requests and lets the test complete them manually. */
class ScriptSink : public RequestSink
{
  public:
    bool
    trySend(const Request &req, Cycle now) override
    {
        if (refuse_all) {
            return false;
        }
        sent.push_back({req, now});
        return true;
    }

    std::vector<std::pair<Request, Cycle>> sent;
    bool refuse_all = false;
};

TraceRecord
load(std::uint32_t gap, Addr addr, bool dep = false)
{
    TraceRecord r;
    r.inst_gap = gap;
    r.line_addr = addr;
    r.depends_on_prev = dep;
    return r;
}

TraceRecord
store(std::uint32_t gap, Addr addr)
{
    TraceRecord r;
    r.inst_gap = gap;
    r.line_addr = addr;
    r.is_write = true;
    return r;
}

CoreParams
smallCore()
{
    CoreParams p;
    p.rob_entries = 32;
    p.width = 4;
    p.mshrs = 4;
    return p;
}

TEST(Core, PureComputeRetiresAtFullWidth)
{
    ScriptTrace trace({});
    ScriptSink sink;
    Core core(0, smallCore(), &trace, 400, &sink);
    Cycle now = 0;
    while (!core.done()) {
        core.tick(now++);
        ASSERT_LT(now, 10000u);
    }
    // 400 instructions at width 4 => 100 cycles (+1 for the final tick).
    EXPECT_LE(core.finishCycle(), 101u);
}

TEST(Core, LoadAtHeadBlocksRetirement)
{
    ScriptTrace trace({load(0, 64)});
    ScriptSink sink;
    Core core(0, smallCore(), &trace, 100, &sink);
    Cycle now = 0;
    for (; now < 50; ++now) {
        core.tick(now);
    }
    ASSERT_EQ(sink.sent.size(), 1u);
    // The load is instruction 0: nothing can retire past it.
    EXPECT_EQ(core.retiredInsts(), 0u);
    core.onReadComplete(sink.sent[0].first.req_id, 60);
    for (; now < 200; ++now) {
        core.tick(now);
    }
    EXPECT_TRUE(core.done());
}

TEST(Core, MshrLimitBoundsOutstandingReads)
{
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 8; ++i) {
        recs.push_back(load(0, 64 * (i + 1)));
    }
    ScriptTrace trace(recs);
    ScriptSink sink;
    CoreParams p = smallCore();
    p.mshrs = 3;
    Core core(0, p, &trace, 100, &sink);
    for (Cycle now = 0; now < 50; ++now) {
        core.tick(now);
    }
    EXPECT_EQ(sink.sent.size(), 3u);
    // Completing one (data at cycle 10 <= now) frees an MSHR.
    core.onReadComplete(sink.sent[0].first.req_id, 10);
    for (Cycle now = 50; now < 100; ++now) {
        core.tick(now);
    }
    EXPECT_EQ(sink.sent.size(), 4u);
}

TEST(Core, DependentLoadWaitsForProducer)
{
    ScriptTrace trace({load(0, 64), load(0, 128, /*dep=*/true)});
    ScriptSink sink;
    Core core(0, smallCore(), &trace, 100, &sink);
    for (Cycle now = 0; now < 50; ++now) {
        core.tick(now);
    }
    // Only the producer issued; the dependent load is held back.
    ASSERT_EQ(sink.sent.size(), 1u);
    core.onReadComplete(sink.sent[0].first.req_id, 60);
    for (Cycle now = 50; now < 100; ++now) {
        core.tick(now);
    }
    ASSERT_EQ(sink.sent.size(), 2u);
    // Issue of the consumer happened only after the data returned.
    EXPECT_GE(sink.sent[1].second, 60u);
}

TEST(Core, IndependentLoadsOverlap)
{
    ScriptTrace trace({load(0, 64), load(0, 128, /*dep=*/false)});
    ScriptSink sink;
    Core core(0, smallCore(), &trace, 100, &sink);
    for (Cycle now = 0; now < 10; ++now) {
        core.tick(now);
    }
    EXPECT_EQ(sink.sent.size(), 2u);
}

TEST(Core, WriteBackpressureStallsRetirement)
{
    ScriptTrace trace({store(0, 64)});
    ScriptSink sink;
    sink.refuse_all = true;
    Core core(0, smallCore(), &trace, 100, &sink);
    Cycle now = 0;
    for (; now < 100; ++now) {
        core.tick(now);
    }
    // The store is instruction 0 and cannot retire unissued.
    EXPECT_EQ(core.retiredInsts(), 0u);
    sink.refuse_all = false;
    for (; now < 300; ++now) {
        core.tick(now);
    }
    EXPECT_TRUE(core.done());
    EXPECT_EQ(sink.sent.size(), 1u);
}

TEST(Core, RobBoundsFetchAhead)
{
    // A blocking load at instruction 0; the core may fetch at most
    // rob_entries instructions beyond the stalled retirement point,
    // so a load rob_entries+1 ahead is never dispatched/issued.
    std::vector<TraceRecord> recs;
    recs.push_back(load(0, 64));
    recs.push_back(load(40, 128)); // within the 32-entry ROB? no: 40 > 31
    ScriptTrace trace(recs);
    ScriptSink sink;
    Core core(0, smallCore(), &trace, 100, &sink); // rob = 32
    for (Cycle now = 0; now < 100; ++now) {
        core.tick(now);
    }
    EXPECT_EQ(sink.sent.size(), 1u);
}

TEST(Core, SecondLoadInsideRobWindowIssues)
{
    std::vector<TraceRecord> recs;
    recs.push_back(load(0, 64));
    recs.push_back(load(16, 128)); // within the 32-entry window
    ScriptTrace trace(recs);
    ScriptSink sink;
    Core core(0, smallCore(), &trace, 100, &sink);
    for (Cycle now = 0; now < 100; ++now) {
        core.tick(now);
    }
    EXPECT_EQ(sink.sent.size(), 2u);
}

TEST(Core, MeasuredIpcExcludesWarmup)
{
    ScriptTrace trace({});
    ScriptSink sink;
    Core core(0, smallCore(), &trace, 800, &sink);
    Cycle now = 0;
    // Warm up 400 instructions, then measure the rest.
    while (core.retiredInsts() < 400) {
        core.tick(now++);
    }
    core.startMeasurement(now);
    while (!core.done()) {
        core.tick(now++);
    }
    EXPECT_EQ(core.measuredInsts(), 800u - 400u);
    EXPECT_NEAR(core.measuredIpc(), 4.0, 0.2);
}

/** Endless random loads and stores, some of them dependent. */
class RandomTrace : public TraceSource
{
  public:
    explicit RandomTrace(std::uint64_t seed) : rng_(seed) {}

    TraceRecord
    next() override
    {
        TraceRecord r;
        r.inst_gap = static_cast<std::uint32_t>(rng_.below(6));
        r.line_addr = 64 * (1 + rng_.below(1024));
        r.is_write = rng_.chance(0.25);
        r.depends_on_prev = rng_.chance(0.3);
        return r;
    }

  private:
    Rng rng_;
};

/** Accepts a random share of requests (queue-full refusals). */
class FlakySink : public RequestSink
{
  public:
    explicit FlakySink(std::uint64_t seed) : rng_(seed) {}

    bool
    trySend(const Request &req, Cycle) override
    {
        if (!rng_.chance(0.7)) {
            return false;
        }
        if (!req.is_write) {
            inflight.push_back(req.req_id);
        }
        return true;
    }

    std::vector<std::uint64_t> inflight;

  private:
    Rng rng_;
};

/** The ROB as saveState() wrote it: req ids of MSHR holders, sorted. */
std::vector<std::uint64_t>
robMshrHolders(const std::vector<std::uint8_t> &image)
{
    Deserializer des(image, FileKind::kSnapshot,
                     Deserializer::kAnyConfigHash);
    des.getU64(); // fetch_inst
    des.getU64(); // retire_inst
    const std::uint32_t n = des.getU32();
    std::vector<std::uint64_t> ids;
    for (std::uint32_t i = 0; i < n; ++i) {
        des.getU64(); // inst_idx
        des.getU64(); // line_addr
        des.getU8();  // is_write
        des.getU8();  // depends_on_prev
        des.getU8();  // issued
        des.getU8();  // done
        const bool held = des.getU8() != 0;
        des.getU64(); // done_at
        const std::uint64_t req_id = des.getU64();
        if (held) {
            ids.push_back(req_id);
        }
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

std::vector<std::uint8_t>
coreImage(const Core &core)
{
    Serializer ser;
    Core::transfer(core, ser);
    return ser.finish(FileKind::kSnapshot, 0);
}

std::vector<std::uint64_t>
sortedIndex(const Core &core)
{
    std::vector<std::uint64_t> ids = core.mshrIndexReqIds();
    std::sort(ids.begin(), ids.end());
    return ids;
}

TEST(Core, MshrIndexMatchesRobScan)
{
    // Random traffic with refusals, dependences and completions whose
    // data lands in the future drives every index update: issue,
    // release by releaseMshrs(), release at retirement, and the
    // rebuild in loadState() (the run continues on the restored core).
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        RandomTrace trace(Rng::streamSeed(seed, 1));
        FlakySink sink(Rng::streamSeed(seed, 2));
        Rng rng(Rng::streamSeed(seed, 3));
        CoreParams p = smallCore();
        p.mshrs = 6;
        auto core = std::make_unique<Core>(0, p, &trace, ~0ull, &sink);
        std::size_t max_held = 0;
        for (Cycle now = 0; now < 4000; ++now) {
            for (std::size_t i = 0; i < sink.inflight.size();) {
                if (rng.chance(0.08)) {
                    core->onReadComplete(sink.inflight[i],
                                         now + rng.below(40));
                    sink.inflight[i] = sink.inflight.back();
                    sink.inflight.pop_back();
                } else {
                    ++i;
                }
            }
            core->tick(now);
            std::vector<std::uint8_t> image = coreImage(*core);
            const std::vector<std::uint64_t> rob = robMshrHolders(image);
            ASSERT_EQ(sortedIndex(*core), rob)
                << "seed " << seed << " cycle " << now;
            max_held = std::max(max_held, rob.size());
            if (now % 500 == 499) {
                auto restored =
                    std::make_unique<Core>(0, p, &trace, ~0ull, &sink);
                Deserializer des(std::move(image), FileKind::kSnapshot,
                                 Deserializer::kAnyConfigHash);
                Core::transfer(*restored, des);
                ASSERT_EQ(sortedIndex(*restored), rob)
                    << "seed " << seed << " restore at " << now;
                core = std::move(restored);
            }
        }
        // Not vacuous: the MSHRs filled up and drained again.
        EXPECT_EQ(max_held, p.mshrs) << "seed " << seed;
        EXPECT_GT(core->retiredInsts(), 1000u) << "seed " << seed;
    }
}

} // namespace
} // namespace mopac
