/**
 * @file
 * Memory controller integration tests: request conservation, latency
 * bounds, row-outcome classification, forwarding, write drain, and a
 * parameterized conservation sweep across every scheduler and page
 * policy combination.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "dram/channel.hh"
#include "mem/factory.hh"
#include "mem/mem_controller.hh"

using namespace mcsim;

namespace {

struct Harness
{
    explicit Harness(SchedulerKind sched = SchedulerKind::FrFcfs,
                     PagePolicyKind policy = PagePolicyKind::OpenAdaptive,
                     bool refresh = true)
        : geom(makeGeom()),
          channel(geom, DramTimings::ddr3_1600(), refresh),
          mc(channel, makeScheduler(sched, 16), makePagePolicy(policy), 16)
    {
        mc.setCompletionCallback(
            [this](Request *req, Tick) { completed.push_back(*req); });
    }

    static DramGeometry
    makeGeom()
    {
        DramGeometry g;
        g.rowsPerBank = 1u << 12;
        return g;
    }

    Request *
    makeReq(Addr addr, bool isWrite, CoreId core = 0)
    {
        auto req = std::make_unique<Request>();
        req->id = storage.size();
        req->core = core;
        req->addr = addr;
        req->isWrite = isWrite;
        // Simple fixed mapping for tests: block -> column/bank/row.
        const Addr blk = addr / 64;
        req->coord.column = blk % geom.blocksPerRow();
        req->coord.bank =
            (blk / geom.blocksPerRow()) % geom.banksPerRank;
        req->coord.rank = (blk / geom.blocksPerRow() / geom.banksPerRank) %
                          geom.ranksPerChannel;
        req->coord.row = blk / geom.blocksPerRow() / geom.banksPerRank /
                         geom.ranksPerChannel;
        storage.push_back(std::move(req));
        return storage.back().get();
    }

    /** Run the controller for @p dramCycles. */
    void
    run(std::uint64_t dramCycles)
    {
        for (std::uint64_t i = 0; i < dramCycles; ++i) {
            mc.tick(now);
            now += kBaselineClocks.ticksPerDram;
        }
    }

    DramGeometry geom;
    Channel channel;
    MemController mc;
    std::vector<std::unique_ptr<Request>> storage;
    std::vector<Request> completed;
    Tick now{};
};

/** Byte address of (row, bank, column) under the test mapping. */
Addr
addrOf(std::uint64_t row, std::uint32_t bank, std::uint32_t col)
{
    const DramGeometry g = Harness::makeGeom();
    return ((row * g.ranksPerChannel * g.banksPerRank + bank) *
                g.blocksPerRow() +
            col) *
           64;
}

} // namespace

TEST(MemController, SingleReadCompletes)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false), h.now);
    h.run(200);
    ASSERT_EQ(h.completed.size(), 1u);
    EXPECT_FALSE(h.completed[0].isWrite);
    // Latency at least tRCD + CL + burst.
    const auto tm = DramTimings::ddr3_1600();
    EXPECT_GE(h.completed[0].completedAt - h.completed[0].arrivedAt,
              kBaselineClocks.dramToTicks(tm.tRCD + tm.tCAS + tm.tBURST));
    EXPECT_EQ(h.completed[0].outcome, RowOutcome::Miss);
    EXPECT_EQ(h.mc.stats().rowMisses, 1u);
}

TEST(MemController, RowHitClassification)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false), h.now);
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 1), false), h.now);
    h.run(300);
    ASSERT_EQ(h.completed.size(), 2u);
    EXPECT_EQ(h.mc.stats().rowHits, 1u);
    EXPECT_EQ(h.mc.stats().rowMisses, 1u);
}

TEST(MemController, ConflictClassification)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false), h.now);
    h.run(100); // Row 1 open, queue empty.
    h.mc.enqueue(h.makeReq(addrOf(2, 0, 0), false), h.now);
    h.run(300);
    ASSERT_EQ(h.completed.size(), 2u);
    EXPECT_EQ(h.mc.stats().rowConflicts, 1u);
}

TEST(MemController, ReadForwardedFromWriteQueue)
{
    Harness h;
    const Addr a = addrOf(3, 1, 5);
    h.mc.enqueue(h.makeReq(a, true), h.now);
    h.mc.enqueue(h.makeReq(a, false), h.now);
    h.run(300);
    EXPECT_EQ(h.mc.stats().forwardedReads, 1u);
    // Both the write and the forwarded read complete.
    EXPECT_EQ(h.completed.size(), 2u);
}

TEST(MemController, WritesDrainAtIdleThreshold)
{
    Harness h;
    for (int i = 0; i < 20; ++i)
        h.mc.enqueue(h.makeReq(addrOf(i, i % 8, 0), true), h.now);
    EXPECT_EQ(h.mc.writeQueueLen(), 20u);
    h.run(2000);
    // Idle drain kicks in (threshold 16) and drains to the low mark.
    EXPECT_LE(h.mc.writeQueueLen(), 8u);
    EXPECT_GE(h.mc.stats().servedWrites, 12u);
}

TEST(MemController, ReadsPrioritizedOverParkedWrites)
{
    Harness h;
    for (int i = 0; i < 4; ++i)
        h.mc.enqueue(h.makeReq(addrOf(10 + i, 0, 0), true), h.now);
    h.mc.enqueue(h.makeReq(addrOf(1, 1, 0), false), h.now);
    h.run(100);
    // The read finishes while the small write backlog stays parked.
    EXPECT_EQ(h.completed.size(), 1u);
    EXPECT_FALSE(h.completed[0].isWrite);
    EXPECT_EQ(h.mc.writeQueueLen(), 4u);
}

TEST(MemController, QueueStatsTrackOccupancy)
{
    Harness h;
    for (int i = 0; i < 6; ++i)
        h.mc.enqueue(h.makeReq(addrOf(i, i % 4, 0), false), h.now);
    h.run(500);
    EXPECT_GT(h.mc.stats().readQueueLen.mean(h.now), 0.0);
    EXPECT_EQ(h.completed.size(), 6u);
}

TEST(MemController, RefreshEventuallyIssues)
{
    Harness h;
    const auto tm = DramTimings::ddr3_1600();
    h.run(tm.tREFI * 3);
    EXPECT_GE(h.channel.stats().refreshes, 2u);
}

TEST(MemController, PerCoreStatsAttributed)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false, 3), h.now);
    h.mc.enqueue(h.makeReq(addrOf(2, 1, 0), false, 5), h.now);
    h.run(300);
    EXPECT_EQ(h.mc.stats().perCoreReads[3], 1u);
    EXPECT_EQ(h.mc.stats().perCoreReads[5], 1u);
    EXPECT_EQ(h.mc.stats().perCoreReads[0], 0u);
}

TEST(MemController, ResetStatsClearsCounters)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false), h.now);
    h.run(200);
    h.mc.resetStats(h.now);
    EXPECT_EQ(h.mc.stats().servedReads, 0u);
    EXPECT_EQ(h.mc.stats().rowMisses, 0u);
    EXPECT_EQ(h.mc.stats().readLatencySamples, 0u);
}

TEST(MemController, ActivationHistogramSampledOnPrecharge)
{
    Harness h(SchedulerKind::FrFcfs, PagePolicyKind::Close);
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false), h.now);
    h.run(300);
    // Close policy precharges right after the single access.
    EXPECT_EQ(h.mc.stats().activationAccesses.bucket(1), 1u);
}

TEST(MemController, CloseAdaptiveClosesIdleRows)
{
    Harness h(SchedulerKind::FrFcfs, PagePolicyKind::CloseAdaptive,
              false);
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false), h.now);
    h.run(300);
    EXPECT_FALSE(h.channel.bank(0, 0).isOpen());
}

TEST(MemController, OpenPolicyKeepsIdleRowsOpen)
{
    Harness h(SchedulerKind::FrFcfs, PagePolicyKind::Open, false);
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false), h.now);
    h.run(300);
    EXPECT_TRUE(h.channel.bank(0, 0).isOpen());
}

TEST(MemController, DrainEntersAtHighWatermarkUnderReadLoad)
{
    Harness h;
    // A steady read presence keeps the idle-timeout drain out of the
    // picture; only the high watermark (24) may start a drain.
    for (int i = 0; i < 23; ++i)
        h.mc.enqueue(h.makeReq(addrOf(100 + i, i % 8, 0), true), h.now);
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false), h.now);
    h.run(1);
    EXPECT_FALSE(h.mc.drainingWrites());
    h.mc.enqueue(h.makeReq(addrOf(200, 0, 1), true), h.now);
    h.run(1);
    EXPECT_TRUE(h.mc.drainingWrites());
}

TEST(MemController, DrainExitsAtLowWatermark)
{
    Harness h;
    for (int i = 0; i < 24; ++i)
        h.mc.enqueue(h.makeReq(addrOf(100 + i, i % 8, 0), true), h.now);
    // Feed a slow trickle of reads so the read queue never stays empty
    // long enough for the idle-timeout drain to take over.
    int nextRead = 0;
    const Tick deadline = Tick{} + kBaselineClocks.coreToTicks(200'000);
    while (h.mc.writeQueueLen() > 12 && h.now < deadline) {
        if (h.mc.readQueueLen() == 0) {
            h.mc.enqueue(
                h.makeReq(addrOf(300 + nextRead, nextRead % 8, 0), false),
                h.now);
            ++nextRead;
        }
        h.run(10);
    }
    EXPECT_EQ(h.mc.writeQueueLen(), 12u);
    h.run(5);
    EXPECT_FALSE(h.mc.drainingWrites());
}

TEST(MemController, IdleTimeoutDrainsLoneWrite)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(5, 2, 0), true), h.now);
    // Below every watermark: only the idle timeout can serve it.
    h.run(128 + 100);
    EXPECT_EQ(h.mc.writeQueueLen(), 0u);
    EXPECT_EQ(h.mc.stats().servedWrites, 1u);
}

TEST(MemController, ForwardingMatchesExactBlockOnly)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(3, 1, 5), true), h.now);
    h.mc.enqueue(h.makeReq(addrOf(3, 1, 6), false), h.now); // Other block.
    h.run(300);
    EXPECT_EQ(h.mc.stats().forwardedReads, 0u);
}

TEST(MemController, ForwardedReadLatencyIsShort)
{
    Harness h;
    const Addr a = addrOf(3, 1, 5);
    h.mc.enqueue(h.makeReq(a, true), h.now);
    h.mc.enqueue(h.makeReq(a, false), h.now);
    h.run(300);
    ASSERT_EQ(h.mc.stats().forwardedReads, 1u);
    // The forwarded read completes in forwardLatencyCycles, far below
    // any DRAM access.
    TickSpan fwdLatency = kMaxTickSpan;
    for (const Request &r : h.completed) {
        if (!r.isWrite)
            fwdLatency = r.completedAt - r.arrivedAt;
    }
    EXPECT_LE(fwdLatency, kBaselineClocks.dramToTicks(4));
}

TEST(MemController, UnifiedQueueSchedulerSeesWritesWithoutDrain)
{
    // RL selects from reads and writes together (paper Section 4.1.3):
    // a lone write is serviced promptly without any drain trigger.
    RlConfig rl;
    rl.epsilon = 0.0;
    SchedulerParams params;
    params.rl = rl;
    DramGeometry g = Harness::makeGeom();
    Channel ch(g, DramTimings::ddr3_1600(), false);
    MemController mc(ch, makeScheduler(SchedulerKind::Rl, 16, params),
                     makePagePolicy(PagePolicyKind::OpenAdaptive), 16);
    auto req = std::make_unique<Request>();
    req->addr = 64;
    req->isWrite = true;
    req->coord.row = 2;
    Tick now{};
    mc.enqueue(req.get(), now);
    for (int i = 0; i < 60; ++i) {
        mc.tick(now);
        now += kBaselineClocks.ticksPerDram;
    }
    EXPECT_EQ(mc.stats().servedWrites, 1u);
}

TEST(MemController, RefreshClosesOpenBankFirst)
{
    Harness h; // Refresh enabled.
    const auto tm = DramTimings::ddr3_1600();
    // Open a row and leave it open (open-adaptive keeps idle rows).
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false), h.now);
    h.run(tm.tREFI + tm.tRFC + 200);
    // Refresh happened, which required an extra precharge beyond the
    // request's own service (which never precharged).
    EXPECT_GE(h.channel.stats().refreshes, 1u);
    EXPECT_GE(h.channel.stats().precharges, 1u);
}

TEST(MemController, WriteCompletionCallbackFiresAtCas)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(2, 0, 0), true), h.now);
    h.run(2000);
    ASSERT_EQ(h.completed.size(), 1u);
    EXPECT_TRUE(h.completed[0].isWrite);
    EXPECT_GT(h.completed[0].completedAt, Tick{});
}

TEST(MemController, PerCoreLatencyAccumulates)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false, 7), h.now);
    h.run(300);
    EXPECT_GT(h.mc.stats().perCoreLatencyTicks[7], TickSpan{0});
    EXPECT_EQ(h.mc.stats().perCoreLatencyTicks[3], TickSpan{0});
}

TEST(MemController, IoCoreStatsUseOverflowSlot)
{
    Harness h;
    h.mc.enqueue(h.makeReq(addrOf(1, 0, 0), false, kIoCoreId), h.now);
    h.run(300);
    // Requests from the IO pseudo-core land in the numCores slot.
    EXPECT_EQ(h.mc.stats().perCoreReads[16], 1u);
}

TEST(MemController, EnqueueStampsBankIndex)
{
    // Two ranks of eight banks: rank r, bank b is bank index 8r + b.
    Harness h;
    ASSERT_EQ(h.geom.ranksPerChannel, 2u);
    ASSERT_EQ(h.geom.banksPerRank, 8u);
    const std::uint32_t banksPerRank = h.geom.banksPerRank;
    struct Case
    {
        std::uint32_t rank, bank, index;
    };
    for (const Case c : {Case{0, 0, 0}, Case{0, 3, 3}, Case{1, 0, 8},
                         Case{1, 7, 15}}) {
        const Addr a = addrOf(1, c.rank * banksPerRank + c.bank, 0);
        Request *req = h.makeReq(a, false);
        ASSERT_EQ(req->coord.rank, c.rank);
        ASSERT_EQ(req->coord.bank, c.bank);
        h.mc.enqueue(req, h.now);
        EXPECT_EQ(req->bankIndex, c.index);
    }
    h.run(500);
    EXPECT_EQ(h.completed.size(), 4u);
}

TEST(MemController, LastBankOfA64BankChannelIsServed)
{
    // 8 ranks x 8 banks: rank 7, bank 7 is bank index 63, the last slot
    // of every per-bank array of the schedulers and page policies.
    DramGeometry g = Harness::makeGeom();
    g.ranksPerChannel = 8;
    for (auto sched : {SchedulerKind::FcfsBanks, SchedulerKind::Fqm,
                       SchedulerKind::ParBs}) {
        for (auto policy : {PagePolicyKind::Rbpp, PagePolicyKind::Abpp,
                            PagePolicyKind::History}) {
            Channel ch(g, DramTimings::ddr3_1600(), false);
            MemController mc(ch, makeScheduler(sched, 16),
                             makePagePolicy(policy), 16);
            std::uint32_t done = 0;
            mc.setCompletionCallback([&done](Request *, Tick) { ++done; });
            std::vector<Request> reqs(6);
            Tick now{};
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                Request &r = reqs[i];
                r.id = i;
                r.addr = 64 * (i + 1);
                r.coord.rank = i % 2 ? 7 : 0;
                r.coord.bank = i % 2 ? 7 : 0;
                r.coord.row = 1 + i / 2; // Conflicts close rows.
                mc.enqueue(&r, now);
                EXPECT_EQ(r.bankIndex, i % 2 ? 63u : 0u);
            }
            for (int c = 0; c < 2000; ++c) {
                mc.tick(now);
                now += kBaselineClocks.ticksPerDram;
            }
            EXPECT_EQ(done, reqs.size())
                << schedulerKindName(sched) << " x "
                << pagePolicyKindName(policy);
        }
    }
}

/**
 * Conservation property across every scheduler x page-policy pair:
 * all requests injected eventually complete exactly once, with
 * positive latency, under random traffic.
 */
class ControllerSweep
    : public ::testing::TestWithParam<
          std::tuple<SchedulerKind, PagePolicyKind>>
{
};

TEST_P(ControllerSweep, AllRequestsCompleteOnce)
{
    const auto [sched, policy] = GetParam();
    Harness h(sched, policy);
    Pcg32 rng(2024);

    std::uint64_t injected = 0;
    for (int burst = 0; burst < 40; ++burst) {
        const int n = 1 + rng.below(6);
        for (int i = 0; i < n; ++i) {
            const Addr a =
                addrOf(rng.below(64), rng.below(8), rng.below(16));
            h.mc.enqueue(h.makeReq(a, rng.chance(0.3),
                                   rng.below(16)),
                         h.now);
            ++injected;
        }
        h.run(50 + rng.below(100));
    }
    h.run(20000); // Drain everything.
    EXPECT_EQ(h.completed.size(), injected);
    EXPECT_EQ(h.mc.readQueueLen(), 0u);
    EXPECT_EQ(h.mc.writeQueueLen(), 0u);
    for (const Request &r : h.completed) {
        if (!r.isWrite) {
            EXPECT_GT(r.completedAt, r.arrivedAt);
        }
    }
    // Hit+miss+conflict accounts for every non-forwarded CAS.
    const auto &s = h.mc.stats();
    EXPECT_EQ(s.rowHits + s.rowMisses + s.rowConflicts,
              s.servedReads + s.servedWrites);
    EXPECT_EQ(s.servedReads + s.forwardedReads + s.servedWrites,
              injected);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, ControllerSweep,
    ::testing::Combine(
        ::testing::Values(SchedulerKind::FrFcfs, SchedulerKind::Fcfs,
                          SchedulerKind::FcfsBanks, SchedulerKind::ParBs,
                          SchedulerKind::Atlas, SchedulerKind::Rl,
                          SchedulerKind::Fqm, SchedulerKind::Tcm,
                          SchedulerKind::Stfm),
        ::testing::Values(PagePolicyKind::OpenAdaptive,
                          PagePolicyKind::CloseAdaptive,
                          PagePolicyKind::Rbpp, PagePolicyKind::Abpp,
                          PagePolicyKind::Open, PagePolicyKind::Close,
                          PagePolicyKind::Timer,
                          PagePolicyKind::History)));

TEST(MemController, RequestStaysEightyEightBytes)
{
    // Request::seq fills the tail padding; a wider key would grow
    // every request the cores keep in flight.
    EXPECT_EQ(sizeof(Request), 88u);
}

/**
 * The controller's per-bank index must equal a rebuild from its queues
 * after every tick (members, queue order, open-row hit counts and bank
 * masks), under every scheduler, through both drain modes, with
 * availableAt-gated requests in the mix.
 */
class ControllerIndex : public ::testing::TestWithParam<SchedulerKind>
{
};

TEST_P(ControllerIndex, MatchesARebuildAfterEveryTick)
{
    Harness h(GetParam());
    Pcg32 rng(99);
    bool sawDrain = false, sawReadMode = false, sawGated = false;
    std::uint64_t injected = 0;
    for (int cycle = 0; cycle < 40'000; ++cycle) {
        if (cycle < 4'000 && rng.chance(0.1)) {
            Request *req = h.makeReq(
                addrOf(rng.below(6), rng.below(16), rng.below(16)),
                rng.chance(0.45), rng.below(16));
            if (rng.chance(0.1)) {
                req->availableAt =
                    h.now + kBaselineClocks.dramToTicks(1 + rng.below(40));
                sawGated = true;
            }
            h.mc.enqueue(req, h.now);
            ++injected;
        }
        h.mc.tick(h.now);
        h.now += kBaselineClocks.ticksPerDram;
        ASSERT_EQ(h.mc.indexMismatch(), "") << "cycle " << cycle;
        if (h.mc.drainingWrites())
            sawDrain = true;
        else if (h.mc.readQueueLen() > 0)
            sawReadMode = true;
        if (cycle >= 4'000 && h.mc.readQueueLen() == 0 &&
            h.mc.writeQueueLen() == 0) {
            break;
        }
    }
    // A unified-queue policy (RL) serves writes among reads, so its
    // write queue does not reach the drain watermark.
    EXPECT_EQ(sawDrain, !h.mc.scheduler().unifiedQueues());
    EXPECT_TRUE(sawReadMode);
    EXPECT_TRUE(sawGated);
    EXPECT_GT(injected, 300u);
    EXPECT_EQ(h.mc.readQueueLen() + h.mc.writeQueueLen(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, ControllerIndex,
    ::testing::ValuesIn(kAllSchedulers.begin(), kAllSchedulers.end()),
    [](const ::testing::TestParamInfo<SchedulerKind> &info) {
        std::string name = schedulerKindName(info.param);
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });
