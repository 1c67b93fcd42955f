/**
 * @file
 * Cpu wrapper tests: completion routing, collective progress, and
 * per-core measurement collection.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/cpu.hh"
#include "sim/profile.hh"

namespace mopac
{
namespace
{

/** Compute-only endless trace. */
class ComputeTrace : public TraceSource
{
  public:
    TraceRecord
    next() override
    {
        TraceRecord rec;
        rec.inst_gap = 1000000;
        return rec;
    }
};

/** One load, then compute. */
class OneLoadTrace : public TraceSource
{
  public:
    explicit OneLoadTrace(Addr addr) : addr_(addr) {}

    TraceRecord
    next() override
    {
        TraceRecord rec;
        if (first_) {
            first_ = false;
            rec.line_addr = addr_;
            return rec;
        }
        rec.inst_gap = 1000000;
        return rec;
    }

  private:
    Addr addr_;
    bool first_ = true;
};

/** Accepts everything; remembers who sent what. */
class RecordingSink : public RequestSink
{
  public:
    bool
    trySend(const Request &req, Cycle) override
    {
        sent.push_back(req);
        return true;
    }

    std::vector<Request> sent;
};

TEST(Cpu, TicksAllCoresToCompletion)
{
    ComputeTrace t0;
    ComputeTrace t1;
    RecordingSink sink;
    CoreParams params;
    Cpu cpu(params, {&t0, &t1}, 4000, &sink);
    ASSERT_EQ(cpu.numCores(), 2u);

    Cycle now = 0;
    cpu.startMeasurement(0);
    while (!cpu.allDone()) {
        cpu.tick(now++);
        ASSERT_LT(now, 100000u);
    }
    EXPECT_GE(cpu.core(0).retiredInsts(), 4000u);
    EXPECT_GE(cpu.core(1).retiredInsts(), 4000u);
    const std::vector<double> ipcs = cpu.measuredIpcs();
    ASSERT_EQ(ipcs.size(), 2u);
    EXPECT_NEAR(ipcs[0], 4.0, 0.2);
    EXPECT_NEAR(ipcs[1], 4.0, 0.2);
}

TEST(Cpu, RequestsCarryTheIssuingCoreId)
{
    OneLoadTrace t0(100);
    OneLoadTrace t1(200);
    RecordingSink sink;
    CoreParams params;
    Cpu cpu(params, {&t0, &t1}, 100, &sink);
    for (Cycle now = 0; now < 10; ++now) {
        cpu.tick(now);
    }
    ASSERT_EQ(sink.sent.size(), 2u);
    for (const Request &req : sink.sent) {
        if (req.line_addr == 100) {
            EXPECT_EQ(req.core_id, 0u);
        } else {
            EXPECT_EQ(req.core_id, 1u);
        }
    }
}

TEST(Cpu, CompletionsRouteToTheRightCore)
{
    OneLoadTrace t0(100);
    OneLoadTrace t1(200);
    RecordingSink sink;
    CoreParams params;
    Cpu cpu(params, {&t0, &t1}, 2000, &sink);
    for (Cycle now = 0; now < 10; ++now) {
        cpu.tick(now);
    }
    ASSERT_EQ(sink.sent.size(), 2u);

    // Complete only core 1's load: core 1 finishes, core 0 stalls.
    Request done = sink.sent[0].core_id == 1 ? sink.sent[0]
                                             : sink.sent[1];
    cpu.memComplete(done, 20);
    for (Cycle now = 10; now < 3000; ++now) {
        cpu.tick(now);
    }
    EXPECT_TRUE(cpu.core(1).done());
    EXPECT_FALSE(cpu.core(0).done());
    EXPECT_FALSE(cpu.allDone());

    // Now complete core 0's load too.
    Request other = sink.sent[0].core_id == 0 ? sink.sent[0]
                                              : sink.sent[1];
    cpu.memComplete(other, 3000);
    for (Cycle now = 3000; now < 6000 && !cpu.allDone(); ++now) {
        cpu.tick(now);
    }
    EXPECT_TRUE(cpu.allDone());
}

/** What a run loop observes of one core. */
struct Observed
{
    Cycle measure_start = 0;
    Cycle finish = 0;
    Cycle end = 0;
    std::uint64_t measured = 0;
    std::uint64_t polled = 0;
};

/**
 * System::runTo's observers over a compute-only Cpu: start measuring
 * on the cycle a core crosses warmup, poll retirement at every
 * kPollPeriod-aligned cycle, stop the cycle after all cores finish.
 */
Observed
observe(Cycle lookahead, std::uint64_t *core_ticks)
{
    ComputeTrace t0;
    RecordingSink sink;
    Cpu cpu(CoreParams{}, {&t0}, 20000, &sink, /*warmup_insts=*/3001,
            lookahead);
    const std::uint64_t ticks0 = simProfile().core_ticks;
    Observed o;
    bool measuring = false;
    Cycle now = 0;
    while (!cpu.allDone()) {
        cpu.tick(now);
        if (!measuring && cpu.core(0).retiredInsts() >= 3001) {
            cpu.core(0).startMeasurement(now);
            o.measure_start = now;
            measuring = true;
        }
        if ((now & (Cpu::kPollPeriod - 1)) == 0) {
            o.polled += cpu.core(0).retiredInsts() * (now + 1);
        }
        ++now;
    }
    o.finish = cpu.core(0).finishCycle();
    o.end = now;
    o.measured = cpu.core(0).measuredInsts();
    *core_ticks = simProfile().core_ticks - ticks0;
    return o;
}

TEST(Cpu, FastForwardKeepsEveryObservation)
{
    std::uint64_t ticks_ref = 0;
    std::uint64_t ticks_ff = 0;
    const Observed ref = observe(0, &ticks_ref);
    const Observed ff = observe(66, &ticks_ff);
    EXPECT_EQ(ff.measure_start, ref.measure_start);
    EXPECT_EQ(ff.finish, ref.finish);
    EXPECT_EQ(ff.end, ref.end);
    EXPECT_EQ(ff.measured, ref.measured);
    EXPECT_EQ(ff.polled, ref.polled);
    // Windows replaced most real ticks.
    EXPECT_LT(ticks_ff * 10, ticks_ref);
}

TEST(CpuDeathTest, UnknownCompletionPanics)
{
    OneLoadTrace t0(100);
    RecordingSink sink;
    CoreParams params;
    Cpu cpu(params, {&t0}, 100, &sink);
    for (Cycle now = 0; now < 5; ++now) {
        cpu.tick(now);
    }
    Request bogus = sink.sent.at(0);
    bogus.req_id += 999;
    EXPECT_DEATH(cpu.memComplete(bogus, 10), "unknown req_id");
}

} // namespace
} // namespace mopac
