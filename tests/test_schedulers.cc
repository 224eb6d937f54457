/**
 * @file
 * Scheduling algorithm unit tests: selection rules, ranking math,
 * starvation guards, and learning updates.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mem/factory.hh"
#include "mem/sched_atlas.hh"
#include "mem/sched_basic.hh"
#include "mem/sched_fqm.hh"
#include "mem/sched_parbs.hh"
#include "mem/sched_rl.hh"

using namespace mcsim;

namespace {

/** Absolute tick @p n (test shorthand for literal times). */
constexpr Tick
tk(std::uint64_t n)
{
    return Tick{n};
}

/** Absolute tick a span past the origin (test shorthand). */
constexpr Tick
tk(TickSpan s)
{
    return Tick{} + s;
}

SchedulerContext
ctx16()
{
    SchedulerContext c;
    c.numCores = 16;
    return c;
}

/**
 * Test fixture helper: owns a pool of requests in queue order and
 * offers a scheduler the issuable ones, as MemController does.
 */
class Pool
{
  public:
    /** Append a request; @p issuable also makes it a candidate. */
    Request &
    add(Tick arrived, CoreId core, std::uint32_t bank, bool issuable,
        bool rowHit, DramCommandType cmd = DramCommandType::Read)
    {
        auto req = std::make_unique<Request>();
        req->id = storage_.size();
        req->core = core;
        req->arrivedAt = arrived;
        req->coord.rank = 0;
        req->coord.bank = bank;
        req->coord.row = 1;
        req->bankIndex = bank; // As MemController::enqueue stamps it.
        Candidate c;
        c.req = req.get();
        c.cmd = cmd;
        c.isRowHit = rowHit;
        entries_.push_back({c, issuable});
        queue_.push_back(req.get());
        storage_.push_back(std::move(req));
        return *queue_.back();
    }

    /** s.choose() over the issuable requests, in pool order, with the
     *  pool and its row-hit count in the context; returns the pick as
     *  a pool position (-1: none). */
    int
    choose(Scheduler &s, Tick now, SchedulerContext ctx = ctx16())
    {
        std::vector<Candidate> cands;
        std::vector<int> position;
        ctx.pool = PoolView(queue_);
        ctx.pendingHits = 0;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            ctx.pendingHits += entries_[i].cand.isRowHit;
            if (entries_[i].issuable) {
                cands.push_back(entries_[i].cand);
                position.push_back(static_cast<int>(i));
            }
        }
        const int pick = s.choose(cands, now, ctx);
        return pick < 0 ? pick
                        : position[static_cast<std::size_t>(pick)];
    }

    Request *req(int i) { return queue_[static_cast<std::size_t>(i)]; }
    int size() const { return static_cast<int>(queue_.size()); }

  private:
    struct Entry
    {
        Candidate cand;
        bool issuable;
    };
    std::vector<std::unique_ptr<Request>> storage_;
    std::vector<Request *> queue_;
    std::vector<Entry> entries_;
};

} // namespace

// ---------------------------------------------------------------- FCFS

TEST(Fcfs, PicksOldestOnly)
{
    // The pool is in arrival order: the oldest is its front, and
    // issuable row hits behind it do not jump ahead.
    FcfsScheduler s;
    Pool p;
    p.add(tk(50), 1, 1, true, false); // Oldest.
    p.add(tk(100), 0, 0, true, true);
    p.add(tk(200), 2, 2, true, true);
    EXPECT_EQ(p.choose(s, tk(300), ctx16()), 0);
}

TEST(Fcfs, IdlesWhenOldestNotIssuable)
{
    FcfsScheduler s;
    Pool p;
    p.add(tk(50), 0, 0, false, false); // Oldest but blocked.
    p.add(tk(100), 1, 1, true, true);  // Issuable but younger.
    EXPECT_EQ(p.choose(s, tk(300), ctx16()), -1);
}

TEST(Fcfs, EmptyPool)
{
    FcfsScheduler s;
    Pool none;
    EXPECT_EQ(none.choose(s, tk(0)), -1);
}

// ---------------------------------------------------------- FCFS_banks

TEST(FcfsBanks, ServesOldestPerBank)
{
    FcfsBanksScheduler s;
    Pool p;
    p.add(tk(50), 0, 0, false, false); // Bank 0 head, blocked.
    p.add(tk(100), 1, 0, true, true);  // Bank 0, younger: NOT eligible.
    p.add(tk(200), 2, 1, true, false); // Bank 1 head, issuable.
    EXPECT_EQ(p.choose(s, tk(300), ctx16()), 2);
}

TEST(FcfsBanks, NoReorderingWithinBank)
{
    FcfsBanksScheduler s;
    Pool p;
    p.add(tk(50), 0, 0, false, false); // Head of bank 0 blocked.
    p.add(tk(100), 1, 0, true, true);  // Row hit behind it.
    EXPECT_EQ(p.choose(s, tk(300), ctx16()), -1);
}

TEST(FcfsBanks, AgeBreaksTiesAcrossBanks)
{
    FcfsBanksScheduler s;
    Pool p;
    p.add(tk(80), 0, 0, true, false);
    p.add(tk(20), 1, 1, true, false); // Older head.
    EXPECT_EQ(p.choose(s, tk(300), ctx16()), 1);
}

TEST(FcfsBanks, EqualAgeHeadsResolveByRequestId)
{
    // Regression: the head-of-bank accounting lives in an
    // unordered_map, and the selection loop once walked candidates in
    // an order influenced by it — equal-arrival heads across banks
    // resolved by hash-bucket order, i.e. differently per stdlib.
    // The contract: ties on arrivedAt break on the lower request id,
    // regardless of how the candidate vector is permuted.
    const Tick arrival = tk(40);
    for (int perm = 0; perm < 2; ++perm) {
        FcfsBanksScheduler s;
        Pool p;
        if (perm == 0) {
            p.add(arrival, 0, 2, true, false); // id 0, bank 2.
            p.add(arrival, 1, 5, true, false); // id 1, bank 5.
            p.add(arrival, 2, 7, true, false); // id 2, bank 7.
        } else {
            // Same requests, reversed bank presentation order; the
            // lowest id must still win.
            p.add(arrival, 2, 7, true, false); // id 0, bank 7.
            p.add(arrival, 1, 5, true, false); // id 1, bank 5.
            p.add(arrival, 0, 2, true, false); // id 2, bank 2.
        }
        const int pick = p.choose(s, tk(300), ctx16());
        ASSERT_GE(pick, 0);
        EXPECT_EQ(p.req(pick)->id, 0u)
            << "permutation " << perm;
    }
}

// -------------------------------------------------------------- FR-FCFS

TEST(FrFcfs, PrefersRowHits)
{
    FrFcfsScheduler s;
    Pool p;
    p.add(tk(50), 0, 0, true, false);  // Oldest, not a hit.
    p.add(tk(100), 1, 1, true, true);  // Younger hit: wins.
    EXPECT_EQ(p.choose(s, tk(300), ctx16()), 1);
}

TEST(FrFcfs, OldestHitAmongHits)
{
    FrFcfsScheduler s;
    Pool p;
    p.add(tk(100), 0, 0, true, true);
    p.add(tk(60), 1, 1, true, true); // Older hit.
    p.add(tk(10), 2, 2, true, false);
    EXPECT_EQ(p.choose(s, tk(300), ctx16()), 1);
}

TEST(FrFcfs, FallsBackToOldest)
{
    FrFcfsScheduler s;
    Pool p;
    p.add(tk(100), 0, 0, true, false);
    p.add(tk(60), 1, 1, true, false);
    EXPECT_EQ(p.choose(s, tk(300), ctx16()), 1);
}

TEST(FrFcfs, SkipsNonIssuable)
{
    FrFcfsScheduler s;
    Pool p;
    p.add(tk(100), 0, 0, false, true);
    p.add(tk(200), 1, 1, true, false);
    EXPECT_EQ(p.choose(s, tk(300), ctx16()), 1);
}

// --------------------------------------------------------------- PAR-BS

TEST(ParBs, MarkedRequestsBeatUnmarked)
{
    ParBsScheduler s(16);
    Pool p;
    p.add(tk(10), 0, 0, true, false);
    p.add(tk(20), 0, 0, true, false);
    // First choose() forms a batch over current pool.
    const int first = p.choose(s, tk(100), ctx16());
    ASSERT_GE(first, 0);
    EXPECT_TRUE(p.req(first)->marked);
    EXPECT_EQ(s.batchesFormed(), 1u);
    // A new arrival after batch formation is unmarked and loses.
    auto &young = p.add(tk(30), 1, 1, true, true);
    const int second = p.choose(s, tk(100), ctx16());
    ASSERT_GE(second, 0);
    EXPECT_TRUE(p.req(second)->marked);
    EXPECT_NE(p.req(second), &young);
}

TEST(ParBs, BatchingCapLimitsPerCoreBankMarks)
{
    ParBsScheduler s(16, ParBsConfig{2});
    Pool p;
    for (int i = 0; i < 5; ++i)
        p.add(tk(10 + i), 0, 0, true, false); // Same core, same bank.
    (void)p.choose(s, tk(100), ctx16());
    int marked = 0;
    for (int i = 0; i < p.size(); ++i)
        marked += p.req(i)->marked;
    EXPECT_EQ(marked, 2);
}

TEST(ParBs, ShortestJobRanksFirst)
{
    ParBsScheduler s(16);
    Pool p;
    // Core 0: 3 requests to one bank (long job). Core 1: 1 request.
    p.add(tk(10), 0, 0, true, false);
    p.add(tk(11), 0, 0, true, false);
    p.add(tk(12), 0, 0, true, false);
    p.add(tk(20), 1, 1, true, false);
    (void)p.choose(s, tk(100), ctx16());
    EXPECT_LT(s.coreRank(1), s.coreRank(0));
}

TEST(ParBs, NewBatchWhenDrained)
{
    ParBsScheduler s(16, ParBsConfig{5});
    Pool p;
    p.add(tk(10), 0, 0, true, false);
    const int idx = p.choose(s, tk(100), ctx16());
    ASSERT_EQ(idx, 0);
    s.onRequestServiced(*p.req(0));
    // Pool for the next cycle: a fresh request; batch is empty so a
    // new one forms and it gets marked.
    Pool p2;
    p2.add(tk(50), 2, 3, true, false);
    (void)p2.choose(s, tk(200), ctx16());
    EXPECT_EQ(s.batchesFormed(), 2u);
    EXPECT_TRUE(p2.req(0)->marked);
}

// ---------------------------------------------------------------- ATLAS

TEST(Atlas, RanksLeastAttainedServiceFirst)
{
    AtlasConfig cfg;
    cfg.quantumCycles = 1000;
    AtlasScheduler s(4, cfg);
    // Core 0 consumes lots of service, core 1 little.
    Request heavy;
    heavy.core = 0;
    for (int i = 0; i < 50; ++i)
        s.onRequestServiced(heavy);
    Request light;
    light.core = 1;
    s.onRequestServiced(light);
    // Advance past a quantum boundary.
    s.tick(tk(kBaselineClocks.coreToTicks(1001)), ctx16());
    EXPECT_EQ(s.quantaElapsed(), 1u);
    EXPECT_LT(s.coreRank(1), s.coreRank(0));
    EXPECT_GT(s.totalService(0), s.totalService(1));
}

TEST(Atlas, ExponentialSmoothingBiasesCurrentQuantum)
{
    AtlasConfig cfg;
    cfg.quantumCycles = 1000;
    cfg.alpha = 0.875;
    AtlasScheduler s(2, cfg);
    Request r;
    r.core = 0;
    for (int i = 0; i < 8; ++i)
        s.onRequestServiced(r);
    s.tick(tk(kBaselineClocks.coreToTicks(1001)), ctx16());
    EXPECT_DOUBLE_EQ(s.totalService(0), 0.875 * 8.0);
    // Next quantum with no service decays it.
    s.tick(tk(kBaselineClocks.coreToTicks(2002)), ctx16());
    EXPECT_DOUBLE_EQ(s.totalService(0), 0.125 * 0.875 * 8.0);
}

TEST(Atlas, HigherRankedCoreWins)
{
    AtlasConfig cfg;
    cfg.quantumCycles = 100;
    AtlasScheduler s(4, cfg);
    Request heavy;
    heavy.core = 2;
    for (int i = 0; i < 10; ++i)
        s.onRequestServiced(heavy);
    s.tick(tk(kBaselineClocks.coreToTicks(101)), ctx16());
    Pool p;
    p.add(tk(kBaselineClocks.coreToTicks(90)), 2, 0, true,
          true); // Heavy core, hit.
    p.add(tk(kBaselineClocks.coreToTicks(95)), 0, 1, true,
          false); // Light core.
    EXPECT_EQ(
        p.choose(s, tk(kBaselineClocks.coreToTicks(110)), ctx16()),
        1);
}

TEST(Atlas, StarvedRequestOverridesRank)
{
    AtlasConfig cfg;
    cfg.quantumCycles = 100;
    cfg.starvationCycles = 1000;
    AtlasScheduler s(4, cfg);
    Request heavy;
    heavy.core = 2;
    for (int i = 0; i < 10; ++i)
        s.onRequestServiced(heavy);
    s.tick(tk(kBaselineClocks.coreToTicks(101)), ctx16());
    Pool p;
    p.add(tk(kBaselineClocks.coreToTicks(10)), 2, 0, true,
          false); // Starved heavy.
    p.add(tk(kBaselineClocks.coreToTicks(1500)), 0, 1, true, true);
    EXPECT_EQ(
        p.choose(s, tk(kBaselineClocks.coreToTicks(1600)), ctx16()),
        0);
}

TEST(Atlas, RowHitBreaksTiesWithinRank)
{
    AtlasScheduler s(4);
    Pool p;
    p.add(tk(10), 0, 0, true, false);
    p.add(tk(20), 0, 1, true, true);
    EXPECT_EQ(p.choose(s, tk(100), ctx16()), 1);
}

// ------------------------------------------------------------------- RL

TEST(Rl, OnlyPicksLegalCandidates)
{
    RlConfig cfg;
    cfg.epsilon = 0.0; // Greedy only; exploration is tested below.
    RlScheduler s(cfg);
    Pool p;
    p.add(tk(10), 0, 0, false, true);
    p.add(tk(20), 1, 1, true, false);
    for (int i = 0; i < 200; ++i) {
        const int idx = p.choose(s, tk(1000 + i), ctx16());
        ASSERT_EQ(idx, 1);
    }
}

TEST(Rl, ExplorationNeverPicksIllegalCandidates)
{
    RlConfig cfg;
    cfg.epsilon = 1.0; // Every decision explores.
    cfg.starvationCycles = 100'000'000;
    RlScheduler s(cfg);
    Pool p;
    p.add(tk(10), 0, 0, false, true);
    p.add(tk(20), 1, 1, true, false);
    bool sawNoAction = false;
    for (int i = 0; i < 300; ++i) {
        const int idx = p.choose(s, tk(1000 + i), ctx16());
        ASSERT_TRUE(idx == 1 || idx == -1) << idx;
        sawNoAction = sawNoAction || idx == -1;
    }
    // The action vocabulary includes no-action.
    EXPECT_TRUE(sawNoAction);
}

TEST(Rl, ReturnsMinusOneWhenNothingLegal)
{
    RlScheduler s;
    Pool p;
    p.add(tk(10), 0, 0, false, true);
    EXPECT_EQ(p.choose(s, tk(100), ctx16()), -1);
}

TEST(Rl, LearnsFromRewards)
{
    RlScheduler s;
    Pool p;
    p.add(tk(10), 0, 0, true, true, DramCommandType::Read);
    // Repeated data-transferring actions earn reward; the chosen
    // feature vector's Q-value must rise above its initial zero.
    Tick now{1000};
    for (int i = 0; i < 500; ++i) {
        (void)p.choose(s, now, ctx16());
        now += kBaselineClocks.ticksPerDram;
    }
    EXPECT_GT(s.updates(), 400u);
}

TEST(Rl, ExploresAtConfiguredRate)
{
    RlConfig cfg;
    cfg.epsilon = 0.2;
    // Starvation must not kick in: the pool is never serviced, and a
    // starved pick would bypass (and undercount) exploration.
    cfg.starvationCycles = 100'000'000;
    RlScheduler s(cfg);
    Pool p;
    p.add(tk(10), 0, 0, true, true);
    p.add(tk(20), 1, 1, true, false);
    Tick now{1000};
    for (int i = 0; i < 5000; ++i) {
        (void)p.choose(s, now, ctx16());
        now += kBaselineClocks.ticksPerDram;
    }
    // ~20% of 5000 decisions should be exploratory.
    EXPECT_NEAR(static_cast<double>(s.explorations()), 1000.0, 200.0);
}

TEST(Rl, StarvationGuardServicesOldRequests)
{
    RlConfig cfg;
    cfg.starvationCycles = 100;
    cfg.epsilon = 0.0;
    RlScheduler s(cfg);
    Pool p;
    p.add(tk(kBaselineClocks.coreToTicks(0)), 0, 0, true,
          false); // Ancient.
    p.add(tk(kBaselineClocks.coreToTicks(190)), 1, 1, true,
          true); // Fresh hit.
    EXPECT_EQ(
        p.choose(s, tk(kBaselineClocks.coreToTicks(200)), ctx16()),
        0);
}

TEST(Rl, DeterministicGivenSeed)
{
    RlConfig cfg;
    cfg.seed = 42;
    RlScheduler a(cfg), b(cfg);
    Pool p;
    p.add(tk(10), 0, 0, true, true);
    p.add(tk(20), 1, 1, true, false);
    Tick now{1000};
    for (int i = 0; i < 300; ++i) {
        ASSERT_EQ(p.choose(a, now, ctx16()),
                  p.choose(b, now, ctx16()));
        now += kBaselineClocks.ticksPerDram;
    }
}

TEST(Rl, UsesUnifiedQueues)
{
    RlScheduler s;
    EXPECT_TRUE(s.unifiedQueues());
    FrFcfsScheduler f;
    EXPECT_FALSE(f.unifiedQueues());
}

// ------------------------------------------------------------------ FQM

TEST(Fqm, EqualizesServiceAcrossCores)
{
    FqmScheduler s(4);
    // Core 0 already got service at bank 0.
    Request served;
    served.core = 0;
    served.bankIndex = 0;
    s.onRequestServiced(served);
    s.onRequestServiced(served);
    Pool p;
    p.add(tk(10), 0, 0, true, true);  // Core 0, much virtual time.
    p.add(tk(20), 1, 0, true, false); // Core 1, none: wins.
    EXPECT_EQ(p.choose(s, tk(100), ctx16()), 1);
    EXPECT_EQ(s.virtualTime(0, p.req(0)->bankIndex), 2u);
}

TEST(Fqm, RowHitBreaksVirtualTimeTies)
{
    FqmScheduler s(4);
    Pool p;
    p.add(tk(10), 0, 0, true, false);
    p.add(tk(20), 1, 1, true, true);
    EXPECT_EQ(p.choose(s, tk(100), ctx16()), 1);
}

// ------------------------------------------------------------------ TCM

namespace {

/** A TCM with one elapsed quantum shaped by the given per-core loads. */
TcmScheduler
tcmAfterQuantum(const std::vector<std::uint64_t> &arrivals,
                const std::vector<std::uint64_t> &services,
                TcmConfig cfg = TcmConfig{})
{
    TcmScheduler s(static_cast<std::uint32_t>(arrivals.size()), cfg);
    Request req;
    for (CoreId c = 0; c < arrivals.size(); ++c) {
        req.core = c;
        for (std::uint64_t i = 0; i < arrivals[c]; ++i)
            s.onRequestArrived(req);
        for (std::uint64_t i = 0; i < services[c]; ++i)
            s.onRequestServiced(req);
    }
    s.tick(tk(kBaselineClocks.coreToTicks(cfg.quantumCycles) + TickSpan{1}),
           SchedulerContext{});
    return s;
}

} // namespace

TEST(Tcm, StartsAsAllLatencyCluster)
{
    TcmScheduler s(4);
    for (CoreId c = 0; c < 4; ++c) {
        EXPECT_TRUE(s.inLatencyCluster(c));
        EXPECT_EQ(s.corePriority(c), 0u);
    }
    EXPECT_EQ(s.quantaElapsed(), 0u);
}

TEST(Tcm, ClustersLightCoresAsLatencySensitive)
{
    // Core 0 is light, cores 1-3 are heavy; with clusterFrac = 0.2 the
    // latency budget is 0.2 * 310 = 62 >= core 0's 10 serviced.
    TcmScheduler s = tcmAfterQuantum({5, 100, 100, 100},
                                     {10, 100, 100, 100});
    EXPECT_EQ(s.quantaElapsed(), 1u);
    EXPECT_TRUE(s.inLatencyCluster(0));
    EXPECT_FALSE(s.inLatencyCluster(1));
    EXPECT_FALSE(s.inLatencyCluster(2));
    EXPECT_FALSE(s.inLatencyCluster(3));
}

TEST(Tcm, LatencyClusterBeatsBandwidthCluster)
{
    TcmScheduler s = tcmAfterQuantum({5, 100, 100, 100},
                                     {10, 100, 100, 100});
    Pool p;
    p.add(tk(10), 1, 0, true, true);  // Heavy core, older, row hit.
    p.add(tk(90), 0, 1, true, false); // Light core: still wins.
    EXPECT_EQ(p.choose(s, tk(100), ctx16()), 1);
}

TEST(Tcm, RowHitBreaksTiesWithinCluster)
{
    TcmScheduler s(4);
    Pool p;
    p.add(tk(10), 0, 0, true, false);
    p.add(tk(20), 1, 1, true, true);
    EXPECT_EQ(p.choose(s, tk(100), ctx16()), 1);
}

TEST(Tcm, StarvedRequestOverridesClusters)
{
    TcmConfig cfg;
    cfg.starvationCycles = 1'000;
    TcmScheduler s = tcmAfterQuantum({5, 100, 100, 100},
                                     {10, 100, 100, 100}, cfg);
    Pool p;
    p.add(tk(kBaselineClocks.coreToTicks(10)), 1, 0, true,
          false); // Starved heavy.
    p.add(tk(kBaselineClocks.coreToTicks(2900)), 0, 1, true, true);
    EXPECT_EQ(
        p.choose(s, tk(kBaselineClocks.coreToTicks(3000)), ctx16()),
        0);
}

TEST(Tcm, ShuffleReordersOnlyBandwidthCluster)
{
    TcmConfig cfg;
    cfg.shuffleCycles = 10;
    TcmScheduler s = tcmAfterQuantum({5, 100, 100, 100},
                                     {10, 100, 100, 100}, cfg);
    const auto lightPrio = s.corePriority(0);
    // Drive several shuffle intervals; the latency core's priority is
    // stable while the bandwidth cores' priorities stay a permutation
    // of the remaining slots.
    const Tick start =
        tk(kBaselineClocks.coreToTicks(cfg.quantumCycles) + TickSpan{100});
    for (int i = 1; i <= 50; ++i) {
        s.tick(start + kBaselineClocks.coreToTicks(10) * i,
               SchedulerContext{});
        EXPECT_EQ(s.corePriority(0), lightPrio);
        std::vector<bool> seen(4, false);
        for (CoreId c = 1; c < 4; ++c) {
            const auto pr = s.corePriority(c);
            ASSERT_GE(pr, 1u);
            ASSERT_LT(pr, 4u);
            ASSERT_FALSE(seen[pr]) << "duplicate priority " << pr;
            seen[pr] = true;
        }
    }
    EXPECT_GE(s.shufflesDone(), 40u);
}

TEST(Tcm, OnlyPicksIssuableCandidates)
{
    TcmScheduler s(4);
    Pool p;
    p.add(tk(10), 0, 0, false, true);
    p.add(tk(20), 1, 1, true, false);
    EXPECT_EQ(p.choose(s, tk(100), ctx16()), 1);
    Pool none;
    EXPECT_EQ(none.choose(s, tk(100)), -1);
}

TEST(Tcm, IoRequestsRankBelowAllCores)
{
    TcmScheduler s = tcmAfterQuantum({50, 50, 50, 50},
                                     {50, 50, 50, 50});
    Pool p;
    p.add(tk(10), kIoCoreId, 0, true, true); // Old IO request.
    p.add(tk(90), 2, 1, true, false);        // Younger core request: wins.
    EXPECT_EQ(p.choose(s, tk(100), ctx16()), 1);
}

// ----------------------------------------------------------------- STFM

TEST(Stfm, BehavesLikeFrFcfsWhenFair)
{
    StfmScheduler s(4);
    Pool p;
    p.add(tk(50), 0, 0, true, false); // Oldest non-hit.
    p.add(tk(100), 1, 1, true, true); // Younger hit: wins under FR-FCFS.
    EXPECT_EQ(p.choose(s, tk(300), ctx16()), 1);
    EXPECT_DOUBLE_EQ(s.unfairness(), 1.0);
}

TEST(Stfm, SlowdownTracksWaitingTime)
{
    StfmScheduler s(4);
    Pool p;
    // Core 0's CAS waited a long time relative to its alone-service
    // estimate: slowdown rises above 1.
    p.add(tk(0), 0, 0, true, true);
    (void)p.choose(s, tk(kBaselineClocks.dramToTicks(500)),
                   ctx16());
    EXPECT_GT(s.slowdownOf(0), 1.0);
    EXPECT_DOUBLE_EQ(s.slowdownOf(1), 1.0); // Idle core.
}

TEST(Stfm, ElevatesMostSlowedCoreWhenUnfair)
{
    StfmConfig cfg;
    cfg.alpha = 1.05;
    StfmScheduler s(4, cfg);
    // Train: core 0's requests wait ~20x service, core 1's none.
    for (int i = 0; i < 4; ++i) {
        Pool waitP;
        waitP.add(tk(0), 0, 0, true, true);
        (void)waitP.choose(s,
                       tk(kBaselineClocks.dramToTicks(400 * (i + 1))),
                       ctx16());
        Pool fastP;
        fastP.add(tk(kBaselineClocks.dramToTicks(400 * (i + 1)) -
                     TickSpan{10}),
                  1, 1, true, true);
        (void)fastP.choose(s,
                       tk(kBaselineClocks.dramToTicks(400 * (i + 1))),
                       ctx16());
    }
    EXPECT_GT(s.unfairness(), 1.05);
    // Now core 0's non-hit must beat core 1's younger row hit.
    Pool p;
    p.add(tk(kBaselineClocks.coreToTicks(5000)), 1, 1, true, true);
    p.add(tk(kBaselineClocks.coreToTicks(4000)), 0, 0, true, false);
    EXPECT_EQ(
        p.choose(s, tk(kBaselineClocks.coreToTicks(5100)), ctx16()),
        1);
}

TEST(Stfm, DecayForgetsOldImbalance)
{
    StfmConfig cfg;
    cfg.decayCycles = 100;
    cfg.decayFactor = 0.0; // Full forget at each interval.
    StfmScheduler s(4, cfg);
    Pool p;
    p.add(tk(0), 0, 0, true, true);
    (void)p.choose(s, tk(kBaselineClocks.dramToTicks(500)),
                   ctx16());
    EXPECT_GT(s.slowdownOf(0), 1.0);
    s.tick(tk(kBaselineClocks.coreToTicks(200)), ctx16());
    EXPECT_DOUBLE_EQ(s.slowdownOf(0), 1.0);
}

TEST(Stfm, StarvedRequestBeatsEverything)
{
    StfmConfig cfg;
    cfg.starvationCycles = 1'000;
    StfmScheduler s(4, cfg);
    Pool p;
    p.add(tk(kBaselineClocks.coreToTicks(0)), 2, 0, true,
          false); // Ancient.
    p.add(tk(kBaselineClocks.coreToTicks(1900)), 0, 1, true, true);
    EXPECT_EQ(
        p.choose(s, tk(kBaselineClocks.coreToTicks(2000)), ctx16()),
        0);
}

TEST(Stfm, OnlyPicksIssuable)
{
    StfmScheduler s(4);
    Pool p;
    p.add(tk(10), 0, 0, false, true);
    EXPECT_EQ(p.choose(s, tk(100), ctx16()), -1);
}

// ------------------------------------------------------------ Tie rule

TEST(PickBest, EqualCandidatesResolveToLowestIndex)
{
    // Two issuable candidates equal in every field but the request id
    // (ascending): every deterministic scheduler issues index 0.
    for (auto kind : {SchedulerKind::FrFcfs, SchedulerKind::FcfsBanks,
                      SchedulerKind::ParBs, SchedulerKind::Atlas,
                      SchedulerKind::Fcfs, SchedulerKind::Fqm,
                      SchedulerKind::Tcm, SchedulerKind::Stfm}) {
        for (const bool rowHit : {false, true}) {
            auto s = makeScheduler(kind, 16);
            Pool p;
            p.add(tk(10), 3, 2, true, rowHit);
            p.add(tk(10), 3, 2, true, rowHit);
            EXPECT_EQ(p.choose(*s, tk(100), ctx16()), 0)
                << schedulerKindName(kind) << " rowHit=" << rowHit;
        }
    }
}

// ----------------------------------------------------------- Last bank

TEST(SchedulerBanks, LastBankOfA64BankChannelIsIndependent)
{
    // Bank index 63 is rank 7, bank 7 of an 8-rank x 8-bank channel:
    // the last slot of the fixed per-bank arrays.
    constexpr std::uint32_t kLast = kMaxBanksPerChannel - 1;
    {
        FcfsBanksScheduler s;
        Pool p;
        p.add(tk(10), 0, 0, false, false);    // Bank 0 head, blocked.
        p.add(tk(20), 1, kLast, true, false); // Bank 63 head: eligible.
        p.add(tk(30), 2, kLast, true, true);  // Behind it: not eligible.
        EXPECT_EQ(p.choose(s, tk(100), ctx16()), 1);
    }
    {
        FqmScheduler s(4);
        Request served;
        served.core = 0;
        served.bankIndex = kLast;
        s.onRequestServiced(served);
        s.onRequestServiced(served);
        EXPECT_EQ(s.virtualTime(0, kLast), 2u);
        EXPECT_EQ(s.virtualTime(0, 0), 0u);
        Pool p;
        p.add(tk(10), 0, kLast, true, false); // Core 0 served at bank 63.
        p.add(tk(20), 1, kLast, true, false);
        EXPECT_EQ(p.choose(s, tk(100), ctx16()), 1);
        Pool p0;
        p0.add(tk(10), 0, 0, true, false); // Bank 0: no service yet.
        p0.add(tk(20), 1, 0, true, false);
        EXPECT_EQ(p0.choose(s, tk(100), ctx16()), 0);
    }
}

// -------------------------------------------------------------- Factory

TEST(Factory, AllSchedulersConstructible)
{
    for (auto kind : {SchedulerKind::FrFcfs, SchedulerKind::FcfsBanks,
                      SchedulerKind::ParBs, SchedulerKind::Atlas,
                      SchedulerKind::Rl, SchedulerKind::Fcfs,
                      SchedulerKind::Fqm, SchedulerKind::Tcm,
                      SchedulerKind::Stfm}) {
        auto s = makeScheduler(kind, 16);
        ASSERT_NE(s, nullptr);
        SchedulerKind back{};
        EXPECT_TRUE(
            trySchedulerKindFromName(schedulerKindName(kind), back));
        EXPECT_EQ(back, kind);
    }
}
