/**
 * @file
 * Page management policy tests: closure rules for all seven policies
 * and the learning behavior of the predictive ones.
 */

#include <gtest/gtest.h>

#include <initializer_list>

#include "mem/factory.hh"
#include "mem/page_policies.hh"

using namespace mcsim;

namespace {

PageQuery
query(std::uint32_t accesses, bool pendingHit, bool pendingConflict,
      std::uint64_t row = 7, Tick now = Tick{1000},
      Tick lastAccess = Tick{1000})
{
    PageQuery q;
    q.bank = 0;
    q.openRow = row;
    q.accessesThisActivation = accesses;
    q.pendingHit = pendingHit;
    q.pendingConflict = pendingConflict;
    q.now = now;
    q.lastAccessAt = lastAccess;
    return q;
}

} // namespace

TEST(OpenPolicy, NeverCloses)
{
    OpenPolicy p;
    EXPECT_FALSE(p.shouldClose(query(5, false, true)));
    EXPECT_FALSE(p.shouldClose(query(0, false, true)));
}

TEST(ClosePolicy, ClosesAfterFirstAccess)
{
    ClosePolicy p;
    EXPECT_FALSE(p.shouldClose(query(0, false, false)));
    EXPECT_TRUE(p.shouldClose(query(1, true, false)));
    EXPECT_TRUE(p.shouldClose(query(1, false, true)));
}

TEST(OpenAdaptive, ClosesOnlyOnConflictWithoutHits)
{
    OpenAdaptivePolicy p;
    EXPECT_FALSE(p.shouldClose(query(1, false, false))); // Idle: stay.
    EXPECT_FALSE(p.shouldClose(query(1, true, true)));   // Hit waiting.
    EXPECT_TRUE(p.shouldClose(query(1, false, true)));   // Conflict only.
}

TEST(CloseAdaptive, ClosesWhenNoPendingHit)
{
    CloseAdaptivePolicy p;
    EXPECT_TRUE(p.shouldClose(query(1, false, false)));
    EXPECT_FALSE(p.shouldClose(query(1, true, false)));
    EXPECT_FALSE(p.shouldClose(query(0, false, false))); // Unused row.
}

TEST(Timer, ClosesAfterIdleInterval)
{
    TimerPolicy p(10); // 10 DRAM cycles.
    const Tick last{1000};
    const auto at = [&](std::uint64_t dramCycles) {
        return last + kBaselineClocks.dramToTicks(dramCycles);
    };
    EXPECT_FALSE(p.shouldClose(query(1, false, false, 7, at(5), last)));
    EXPECT_TRUE(p.shouldClose(query(1, false, false, 7, at(10), last)));
    // A pending hit always holds the row open.
    EXPECT_FALSE(p.shouldClose(query(1, true, false, 7, at(100), last)));
}

TEST(Rbpp, UntrackedRowBehavesOpenAdaptive)
{
    RbppPolicy p;
    EXPECT_FALSE(p.shouldClose(query(1, false, false)));
    EXPECT_TRUE(p.shouldClose(query(1, false, true)));
}

TEST(Rbpp, RecordsOnlyRowsWithHits)
{
    RbppPolicy p;
    p.onPrecharge(0, 7, 1); // Single access: not recorded.
    EXPECT_EQ(p.predictedHits(0, 7), -1);
    p.onPrecharge(0, 9, 4); // 3 hits: recorded.
    EXPECT_EQ(p.predictedHits(0, 9), 3);
}

TEST(Rbpp, PredictionDrivesClosure)
{
    RbppPolicy p;
    p.onPrecharge(0, 7, 3); // Predict 2 hits next time.
    // With 2 accesses done (1 hit so far), stay open.
    EXPECT_FALSE(p.shouldClose(query(2, false, false)));
    // After 3 accesses (first + 2 hits), close even without conflict.
    EXPECT_TRUE(p.shouldClose(query(3, false, false)));
    // But never while a hit is queued.
    EXPECT_FALSE(p.shouldClose(query(3, true, false)));
}

TEST(Rbpp, SingleAccessActivationRetiresStaleEntry)
{
    RbppPolicy p;
    p.onPrecharge(0, 7, 4);
    EXPECT_EQ(p.predictedHits(0, 7), 3);
    p.onPrecharge(0, 7, 1); // This activation saw no hits.
    EXPECT_EQ(p.predictedHits(0, 7), -1);
}

TEST(Rbpp, MarrCapacityEvictsLru)
{
    RbppPolicy p(2); // Two registers per bank.
    p.onPrecharge(0, 1, 2);
    p.onPrecharge(0, 2, 3);
    p.onPrecharge(0, 3, 4); // Evicts row 1.
    EXPECT_EQ(p.predictedHits(0, 1), -1);
    EXPECT_EQ(p.predictedHits(0, 2), 2);
    EXPECT_EQ(p.predictedHits(0, 3), 3);
}

TEST(Abpp, RecordsZeroHitRows)
{
    AbppPolicy p;
    p.onPrecharge(0, 7, 1); // Zero hits: ABPP still records.
    EXPECT_EQ(p.predictedHits(0, 7), 0);
    // Prediction of 0 hits means close right after the first access.
    EXPECT_TRUE(p.shouldClose(query(1, false, false)));
}

TEST(Abpp, PerBankTablesAreIndependent)
{
    AbppPolicy p;
    p.onPrecharge(0, 7, 5);
    EXPECT_EQ(p.predictedHits(0, 7), 4);
    EXPECT_EQ(p.predictedHits(1, 7), -1);
    EXPECT_EQ(p.predictedHits(8, 7), -1); // Rank 1, bank 0 (8-bank rank).
}

TEST(Abpp, UpdatesExistingEntry)
{
    AbppPolicy p;
    p.onPrecharge(0, 7, 5);
    p.onPrecharge(0, 7, 2);
    EXPECT_EQ(p.predictedHits(0, 7), 1);
}

TEST(History, PriorPredictsSingleAccess)
{
    HistoryPolicy p;
    // Fresh predictor: weakly "single access", so close eagerly.
    EXPECT_TRUE(p.predictsSingleAccess(0));
    EXPECT_TRUE(p.shouldClose(query(1, false, false)));
    EXPECT_FALSE(p.shouldClose(query(0, false, false))); // Unaccessed.
    EXPECT_FALSE(p.shouldClose(query(1, true, false)));  // Hit waiting.
}

TEST(History, LearnsMultiAccessPattern)
{
    HistoryPolicy p(2);
    // A steady run of multi-access activations flips the counters for
    // the histories the run walks through.
    for (int i = 0; i < 16; ++i)
        p.onPrecharge(0, 7, 5);
    EXPECT_FALSE(p.predictsSingleAccess(0));
    // Predicted reuse: fall back to open-adaptive behavior.
    EXPECT_FALSE(p.shouldClose(query(1, false, false)));
    EXPECT_TRUE(p.shouldClose(query(1, false, true)));
}

TEST(History, RelearnsSingleAccessPattern)
{
    HistoryPolicy p(2);
    for (int i = 0; i < 16; ++i)
        p.onPrecharge(0, 7, 4);
    EXPECT_FALSE(p.predictsSingleAccess(0));
    for (int i = 0; i < 16; ++i)
        p.onPrecharge(0, 7, 1);
    EXPECT_TRUE(p.predictsSingleAccess(0));
    EXPECT_TRUE(p.shouldClose(query(1, false, false)));
}

TEST(History, BankPredictorsAreIndependent)
{
    HistoryPolicy p(2);
    for (int i = 0; i < 16; ++i)
        p.onPrecharge(0, 7, 5); // Bank 0 learns multi-access.
    EXPECT_FALSE(p.predictsSingleAccess(0));
    EXPECT_TRUE(p.predictsSingleAccess(1)); // Bank 1 untouched.
    EXPECT_TRUE(p.predictsSingleAccess(8)); // Other rank (1, 0) untouched.
}

TEST(History, AlternatingPatternTracksPerHistoryCounters)
{
    // Alternate single / multi: with 2 history bits the histories
    // 0b10 (multi last) and 0b01 (single last) each converge to
    // predicting the *next* outcome in the cycle.
    HistoryPolicy p(2);
    for (int i = 0; i < 64; ++i)
        p.onPrecharge(0, 7, (i % 2) ? 3 : 1);
    // The loop ends on a multi outcome: history 0b10, and the next
    // outcome in the cycle is single.
    EXPECT_TRUE(p.predictsSingleAccess(0));
    p.onPrecharge(0, 7, 1);
    // One more single: history 0b01, next in the cycle is multi.
    EXPECT_FALSE(p.predictsSingleAccess(0));
}

TEST(PagePolicyBanks, LastBankOfA64BankChannelIsIndependent)
{
    // Bank index 63 is rank 7, bank 7 of an 8-rank x 8-bank channel:
    // the last slot of the fixed per-bank tables.
    constexpr std::uint32_t kLast = kMaxBanksPerChannel - 1;
    RbppPolicy rbpp;
    AbppPolicy abpp;
    for (PredictivePolicyBase *p :
         std::initializer_list<PredictivePolicyBase *>{&rbpp, &abpp}) {
        p->onPrecharge(kLast, 7, 5);
        EXPECT_EQ(p->predictedHits(kLast, 7), 4);
        EXPECT_EQ(p->predictedHits(0, 7), -1);
        p->onPrecharge(0, 7, 3);
        EXPECT_EQ(p->predictedHits(0, 7), 2);
        EXPECT_EQ(p->predictedHits(kLast, 7), 4);
    }

    HistoryPolicy history(2);
    for (int i = 0; i < 16; ++i)
        history.onPrecharge(kLast, 7, 5); // Bank 63 learns multi-access.
    EXPECT_FALSE(history.predictsSingleAccess(kLast));
    EXPECT_TRUE(history.predictsSingleAccess(0));
    for (int i = 0; i < 16; ++i)
        history.onPrecharge(0, 7, 4); // Bank 0 learns it on its own.
    EXPECT_FALSE(history.predictsSingleAccess(0));
    EXPECT_TRUE(history.predictsSingleAccess(kLast - 1));
}

TEST(Factory, AllPoliciesConstructible)
{
    for (auto kind :
         {PagePolicyKind::OpenAdaptive, PagePolicyKind::CloseAdaptive,
          PagePolicyKind::Rbpp, PagePolicyKind::Abpp,
          PagePolicyKind::Open, PagePolicyKind::Close,
          PagePolicyKind::Timer, PagePolicyKind::History}) {
        auto p = makePagePolicy(kind);
        ASSERT_NE(p, nullptr);
        PagePolicyKind back{};
        EXPECT_TRUE(
            tryPagePolicyKindFromName(pagePolicyKindName(kind), back));
        EXPECT_EQ(back, kind);
    }
}

using PagePolicyDeathTest = ::testing::Test;

TEST(PagePolicyDeathTest, RbppRejectsAnEmptyTable)
{
    // Zero registers would leave onPrecharge indexing t[0] of an empty
    // table.
    EXPECT_DEATH({ RbppPolicy p(0); }, "marrsPerBank >= 1");
    RbppPolicy one(1);
    one.onPrecharge(0, 7, 3);
    EXPECT_EQ(one.predictedHits(0, 7), 2);
}

TEST(PagePolicyDeathTest, AbppRejectsAnEmptyTable)
{
    EXPECT_DEATH({ AbppPolicy p(0); }, "entriesPerBank >= 1");
    AbppPolicy one(1);
    one.onPrecharge(0, 7, 1);
    EXPECT_EQ(one.predictedHits(0, 7), 0);
}

TEST(PagePolicyDeathTest, HistoryRejectsMoreThan16Bits)
{
    // A 2^bits counter table per bank; 32 bits would also shift
    // 1u << 32, which is undefined.
    EXPECT_DEATH({ HistoryPolicy p(17); }, "historyBits <= 16");
    HistoryPolicy widest(16);
    EXPECT_TRUE(widest.predictsSingleAccess(0));
}
