/**
 * @file
 * Scheduler-policy tests beyond the basic controller suite: write
 * drain hysteresis, bank-level parallelism, FCFS fairness among
 * conflicting requests, and PREcu plumbing for MoPAC-C's per-bank
 * bit.
 *
 * The property tests at the bottom are the ground truth for the
 * ISSUE 9 indexed scheduler: randomized traffic (counter-mode seeds)
 * replayed through an indexed controller and a naive_scan reference
 * controller in lockstep, requiring identical command selection,
 * identical next_wake_ maintenance, and byte-identical checkpoints;
 * plus reference-model invariants for the RequestQueue container
 * itself.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "mc/controller.hh"
#include "mc/request_queue.hh"
#include "mitigation/none.hh"

namespace mopac
{
namespace
{

class CaptureClient : public MemClient
{
  public:
    void
    memComplete(const Request &req, Cycle done) override
    {
        order.push_back(req.req_id);
        done_at.push_back(done);
    }

    std::vector<std::uint64_t> order;
    std::vector<Cycle> done_at;
};

/** Engine that selects every activation for PREcu. */
class AlwaysCu : public NoMitigation
{
  public:
    bool
    selectForUpdate(unsigned, std::uint32_t, Cycle) override
    {
        return true;
    }
};

class SchedulerTest : public ::testing::Test
{
  protected:
    SchedulerTest() : base_(TimingSet::base()), prac_(TimingSet::prac())
    {
        geo_.rows_per_bank = 1024;
        geo_.banks_per_subchannel = 8;
        geo_.num_subchannels = 1;
        geo_.chips = 1;
        dev_ = std::make_unique<SubChannel>(geo_, &base_, &prac_, 500);
        dev_->setMitigator(&engine_);
        map_ = std::make_unique<AddressMap>(geo_);
        mc_ = std::make_unique<Controller>(*dev_, *map_, params_,
                                           &client_);
    }

    Request
    readReq(unsigned bank, std::uint32_t row, std::uint32_t col = 0)
    {
        Request r;
        r.line_addr = map_->encode({0, bank, row, col});
        r.req_id = next_id_++;
        return r;
    }

    Request
    writeReq(unsigned bank, std::uint32_t row, std::uint32_t col = 0)
    {
        Request r = readReq(bank, row, col);
        r.is_write = true;
        return r;
    }

    void
    runUntil(Cycle end)
    {
        for (; now_ < end; ++now_) {
            mc_->tick(now_);
        }
    }

    Geometry geo_;
    TimingSet base_;
    TimingSet prac_;
    ControllerParams params_;
    std::unique_ptr<SubChannel> dev_;
    NoMitigation engine_;
    std::unique_ptr<AddressMap> map_;
    CaptureClient client_;
    std::unique_ptr<Controller> mc_;
    Cycle now_ = 0;
    std::uint64_t next_id_ = 1;
};

TEST_F(SchedulerTest, BankLevelParallelismOverlapsActivations)
{
    // Four reads to four banks: total service time is far below four
    // serialized row cycles.
    for (unsigned b = 0; b < 4; ++b) {
        ASSERT_TRUE(mc_->enqueue(readReq(b, 5), 0));
    }
    runUntil(2000);
    ASSERT_EQ(client_.done_at.size(), 4u);
    const Cycle last = *std::max_element(client_.done_at.begin(),
                                         client_.done_at.end());
    EXPECT_LT(last, 2 * base_.tRC);
}

TEST_F(SchedulerTest, ConflictingReadsServedFcfs)
{
    // Three conflicting rows in one bank: completion order matches
    // arrival order (no starvation / reordering without hits).
    ASSERT_TRUE(mc_->enqueue(readReq(0, 1), 0));
    ASSERT_TRUE(mc_->enqueue(readReq(0, 2), 0));
    ASSERT_TRUE(mc_->enqueue(readReq(0, 3), 0));
    runUntil(4000);
    ASSERT_EQ(client_.order.size(), 3u);
    EXPECT_EQ(client_.order, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST_F(SchedulerTest, WriteDrainHysteresis)
{
    // Fill the write queue past the high watermark with a read
    // stream present: the controller must switch to writes and drain
    // down to the low watermark.
    for (unsigned i = 0; i < params_.wq_drain_high; ++i) {
        ASSERT_TRUE(mc_->enqueue(writeReq(i % 8, 2 + i / 8), 0));
    }
    ASSERT_TRUE(mc_->enqueue(readReq(0, 900), 0));
    runUntil(10000);
    EXPECT_LE(mc_->writeQueueDepth(), params_.wq_drain_low);
    EXPECT_EQ(client_.order.size(), 1u); // the read completed too
}

TEST_F(SchedulerTest, WritesDoNotStarveWithoutReads)
{
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(mc_->enqueue(writeReq(0, 10 + i), 0));
    }
    runUntil(5000);
    EXPECT_EQ(mc_->writeQueueDepth(), 0u);
    EXPECT_EQ(dev_->stats().writes, 6u);
}

TEST_F(SchedulerTest, PreCuBitFollowsEngineDecision)
{
    AlwaysCu cu_engine;
    dev_->setMitigator(&cu_engine);
    ASSERT_TRUE(mc_->enqueue(readReq(0, 5), 0));
    runUntil(300);
    ASSERT_TRUE(mc_->enqueue(readReq(0, 9), now_)); // forces PRE
    runUntil(now_ + 1000);
    // Both activations were selected: the conflict PRE was a PREcu.
    EXPECT_EQ(dev_->stats().precus, 1u);
    EXPECT_EQ(dev_->stats().pres, 1u);
}

TEST_F(SchedulerTest, ReadLatencyHistogramPopulated)
{
    for (unsigned b = 0; b < 4; ++b) {
        ASSERT_TRUE(mc_->enqueue(readReq(b, 5), 0));
    }
    runUntil(2000);
    EXPECT_EQ(mc_->stats().read_latency.count(), 4u);
    EXPECT_GT(mc_->stats().read_latency.mean(),
              static_cast<double>(base_.tRCD));
}

/** Engine that selects every other activation for PREcu. */
class AlternatingCu : public NoMitigation
{
  public:
    bool
    selectForUpdate(unsigned, std::uint32_t, Cycle) override
    {
        return (++calls_ & 1) != 0;
    }

  private:
    std::uint64_t calls_ = 0;
};

/**
 * One controller plus everything it mutates, so a naive and an
 * indexed instance can run the same traffic side by side.
 */
struct SchedRig
{
    SchedRig(const Geometry &geo, const TimingSet *base,
             const TimingSet *prac, const ControllerParams &params)
        : dev(geo, base, prac, 500)
    {
        dev.setMitigator(&engine);
        map = std::make_unique<AddressMap>(geo);
        mc = std::make_unique<Controller>(dev, *map, params, &client);
    }

    SubChannel dev;
    AlternatingCu engine;
    std::unique_ptr<AddressMap> map;
    CaptureClient client;
    std::unique_ptr<Controller> mc;
};

/**
 * Drive a naive_scan reference controller and an indexed controller
 * through identical randomized traffic and require identical
 * behaviour at every observable seam.
 */
void
runSchedulerDifferential(std::uint64_t seed, PagePolicy policy,
                         Cycle cycles)
{
    Geometry geo;
    geo.rows_per_bank = 128;
    geo.banks_per_subchannel = 8;
    geo.num_subchannels = 1;
    geo.chips = 1;
    TimingSet base = TimingSet::base();
    TimingSet prac = TimingSet::prac();

    ControllerParams params;
    params.read_queue_cap = 16;
    params.write_queue_cap = 16;
    params.wq_drain_high = 10;
    params.wq_drain_low = 6;
    params.page_policy = policy;
    ControllerParams naive_params = params;
    naive_params.naive_scan = true;

    SchedRig naive(geo, &base, &prac, naive_params);
    SchedRig indexed(geo, &base, &prac, params);

    // Counter-mode stream: the draw sequence is a pure function of
    // (seed, cycle), so a failure reproduces from its seed alone.
    Rng rng(Rng::streamSeed(seed, 0));
    std::uint64_t next_id = 1;
    for (Cycle now = 0; now < cycles; ++now) {
        // Bursty arrivals over few rows/banks: plenty of row hits,
        // conflicts, write drains, and queue-full backpressure.
        const double load = (now / 512) % 2 == 0 ? 0.45 : 0.05;
        if (rng.chance(load)) {
            Request req;
            const unsigned bank =
                static_cast<unsigned>(rng.below(geo.banks_per_subchannel));
            const std::uint32_t row =
                static_cast<std::uint32_t>(rng.below(4));
            req.line_addr = naive.map->encode({0, bank, row, 0});
            req.is_write = rng.chance(0.35);
            req.req_id = next_id;
            req.core_id = 0;
            // Admission must agree before the request is offered.
            const bool naive_ok = req.is_write
                                      ? naive.mc->canAcceptWrite()
                                      : naive.mc->canAcceptRead();
            const bool indexed_ok = req.is_write
                                        ? indexed.mc->canAcceptWrite()
                                        : indexed.mc->canAcceptRead();
            ASSERT_EQ(naive_ok, indexed_ok) << "cycle " << now;
            if (naive_ok) {
                ASSERT_TRUE(naive.mc->enqueue(req, now));
                ASSERT_TRUE(indexed.mc->enqueue(req, now));
                ++next_id;
            }
        }
        naive.mc->tick(now);
        indexed.mc->tick(now);

        // Command selection and the next-event contract must agree
        // cycle by cycle.
        ASSERT_EQ(naive.mc->nextWakeAt(), indexed.mc->nextWakeAt())
            << "cycle " << now;
        ASSERT_EQ(naive.client.order, indexed.client.order)
            << "cycle " << now;
        ASSERT_EQ(naive.client.done_at, indexed.client.done_at)
            << "cycle " << now;
        const auto &ns = naive.mc->stats();
        const auto &is = indexed.mc->stats();
        ASSERT_EQ(ns.cas_reads, is.cas_reads) << "cycle " << now;
        ASSERT_EQ(ns.cas_writes, is.cas_writes) << "cycle " << now;
        ASSERT_EQ(ns.row_hits, is.row_hits) << "cycle " << now;
        ASSERT_EQ(ns.refs_issued, is.refs_issued) << "cycle " << now;
        const auto &nd = naive.dev.stats();
        const auto &id = indexed.dev.stats();
        ASSERT_EQ(nd.acts, id.acts) << "cycle " << now;
        ASSERT_EQ(nd.pres, id.pres) << "cycle " << now;
        ASSERT_EQ(nd.precus, id.precus) << "cycle " << now;

        if ((now & 255) == 0) {
            // Checkpoint bytes -- queue contents in arrival order
            // plus every stat; the serialized layout must not see
            // the scheduler flavour at all.
            Serializer sn;
            Serializer si;
            Controller::transfer(std::as_const(*naive.mc), sn);
            Controller::transfer(std::as_const(*indexed.mc), si);
            ASSERT_EQ(sn.finish(FileKind::kSnapshot, 0),
                      si.finish(FileKind::kSnapshot, 0))
                << "cycle " << now;
        }
    }
    // The run must have exercised the scheduler for real.
    EXPECT_GT(indexed.mc->stats().cas_reads, 100u);
    EXPECT_GT(indexed.mc->stats().cas_writes, 50u);
    EXPECT_GT(indexed.dev.stats().acts, 50u);
}

TEST(SchedulerProperty, IndexedMatchesNaiveOpenPage)
{
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        runSchedulerDifferential(seed, PagePolicy::kOpen, 6000);
    }
}

TEST(SchedulerProperty, IndexedMatchesNaiveClosePage)
{
    for (std::uint64_t seed = 10; seed < 13; ++seed) {
        runSchedulerDifferential(seed, PagePolicy::kClose, 6000);
    }
}

TEST(SchedulerProperty, IndexedMatchesNaiveTimeoutPage)
{
    for (std::uint64_t seed = 20; seed < 23; ++seed) {
        runSchedulerDifferential(seed, PagePolicy::kTimeout, 6000);
    }
}

/**
 * Reference model for RequestQueue: a plain arrival-ordered vector.
 * Randomized push/erase sequences must keep the global list, the
 * per-bank lists, the occupancy mask, and the stale-bank mask in
 * exact agreement with it.
 */
TEST(RequestQueueProperty, MatchesVectorReferenceModel)
{
    constexpr unsigned kBanks = 8;
    constexpr unsigned kCap = 32;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        Rng rng(Rng::streamSeed(seed, 1));
        RequestQueue q;
        q.init(kCap, kBanks);
        std::vector<std::int32_t> ref_slots; // arrival order
        // init() marks every bank stale; push/erase and markStale()
        // set a bank's bit, clearStale() drops the bits it is given.
        std::uint64_t stale = (std::uint64_t{1} << kBanks) - 1;
        std::uint64_t last_seq = 0;
        for (int step = 0; step < 4000; ++step) {
            const bool do_push =
                !q.full() && (q.empty() || rng.chance(0.55));
            if (do_push) {
                Request req;
                req.bank = static_cast<unsigned>(rng.below(kBanks));
                req.row = static_cast<std::uint32_t>(rng.below(16));
                req.req_id = static_cast<std::uint64_t>(step);
                const std::int32_t s = q.push(req);
                ref_slots.push_back(s);
                stale |= std::uint64_t{1} << req.bank;
            } else {
                const std::size_t victim = static_cast<std::size_t>(
                    rng.below(ref_slots.size()));
                const std::int32_t s = ref_slots[victim];
                stale |= std::uint64_t{1} << q.at(s).bank;
                q.erase(s);
                ref_slots.erase(ref_slots.begin() +
                                static_cast<std::ptrdiff_t>(victim));
            }
            // The owner's side: rebuild a random subset of banks and
            // flag an outside change (an ACT) on another.
            if (rng.chance(0.3)) {
                const std::uint64_t walked = rng.below(1U << kBanks);
                q.clearStale(walked);
                stale &= ~walked;
            }
            if (rng.chance(0.1)) {
                const unsigned b = static_cast<unsigned>(rng.below(kBanks));
                q.markStale(b);
                stale |= std::uint64_t{1} << b;
            }
            ASSERT_EQ(q.staleMask(), stale);

            // Global list == reference vector, seq strictly
            // increasing along it.
            ASSERT_EQ(q.size(), ref_slots.size());
            std::size_t i = 0;
            std::uint64_t bank_mask = 0;
            for (std::int32_t s = q.head(); s != RequestQueue::kNil;
                 s = q.next(s), ++i) {
                ASSERT_LT(i, ref_slots.size());
                ASSERT_EQ(s, ref_slots[i]);
                if (i > 0) {
                    ASSERT_GT(q.seq(s), last_seq);
                }
                last_seq = q.seq(s);
                bank_mask |= std::uint64_t{1} << q.at(s).bank;
            }
            ASSERT_EQ(i, ref_slots.size());
            ASSERT_EQ(q.bankMask(), bank_mask);

            // Each bank list == the bank-filtered global list.
            for (unsigned b = 0; b < kBanks; ++b) {
                std::int32_t bs = q.bankHead(b);
                for (const std::int32_t s : ref_slots) {
                    if (q.at(s).bank != b) {
                        continue;
                    }
                    ASSERT_EQ(bs, s) << "bank " << b;
                    bs = q.bankNext(bs);
                }
                ASSERT_EQ(bs, RequestQueue::kNil) << "bank " << b;
            }
        }
        // A restore rebuilds through clear(): every bank is stale.
        q.clearStale(~std::uint64_t{0});
        q.clear();
        ASSERT_EQ(q.staleMask(), (std::uint64_t{1} << kBanks) - 1);
    }
}

} // namespace
} // namespace mopac
