/**
 * @file
 * The page management policies studied in the paper (Section 2.2 /
 * 4.2) plus the timer-based extension:
 *
 *  - OpenPolicy:          keep rows open until a conflict forces a PRE.
 *  - ClosePolicy:         precharge immediately after every access.
 *  - OpenAdaptivePolicy:  close only when no pending hit exists AND a
 *                         pending request needs another row (baseline).
 *  - CloseAdaptivePolicy: close as soon as no pending hit exists.
 *  - RbppPolicy:          Row-Based Page Policy (Shen et al.): a few
 *                         most-accessed-row registers per bank record
 *                         the hit counts of recently accessed rows that
 *                         received at least one hit; a row stays open
 *                         until it reaches its predicted hits.
 *  - AbppPolicy:          Access-Based Page Policy (Awasthi et al.):
 *                         per-bank tables predict a row receives the
 *                         same number of hits as last activation.
 *  - TimerPolicy:         close after a fixed idle interval (extension;
 *                         the paper cites but does not evaluate it).
 *  - HistoryPolicy:       branch-predictor-style two-level closure
 *                         predictor (extension; adapts the single-core
 *                         proposals of Xu et al. and Park & Park that
 *                         the paper cites in Section 2.2 but excludes).
 */

#ifndef CLOUDMC_MEM_PAGE_POLICIES_HH
#define CLOUDMC_MEM_PAGE_POLICIES_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "dram/dram_params.hh"
#include "page_policy.hh"

namespace mcsim {

/** Open-page: rows close only on conflict. */
class OpenPolicy : public PagePolicy
{
  public:
    bool shouldClose(const PageQuery &) override { return false; }
};

/** Close-page: precharge right after each column access. */
class ClosePolicy : public PagePolicy
{
  public:
    bool
    shouldClose(const PageQuery &q) override
    {
        return q.accessesThisActivation >= 1;
    }
};

/** Open-adaptive (the paper's baseline). */
class OpenAdaptivePolicy : public PagePolicy
{
  public:
    bool
    shouldClose(const PageQuery &q) override
    {
        return !q.pendingHit && q.pendingConflict;
    }
};

/** Close-adaptive. */
class CloseAdaptivePolicy : public PagePolicy
{
  public:
    bool
    shouldClose(const PageQuery &q) override
    {
        return q.accessesThisActivation >= 1 && !q.pendingHit;
    }
};

/**
 * Shared machinery for the two predictive policies: a per-bank,
 * LRU-replaced table mapping row -> hits observed during its previous
 * activation. The policies differ in admission (RBPP records only rows
 * that earned at least one hit, into a handful of registers; ABPP
 * records every row into a larger table).
 */
class PredictivePolicyBase : public PagePolicy
{
  public:
    PredictivePolicyBase(std::uint32_t entriesPerBank,
                         bool recordZeroHitRows);

    bool shouldClose(const PageQuery &q) override;
    void onPrecharge(std::uint32_t bank, std::uint64_t row,
                     std::uint32_t accesses) override;

    /** Predicted hit count for a row, or -1 when untracked. */
    int predictedHits(std::uint32_t bank, std::uint64_t row) const;

  private:
    struct Entry
    {
        std::uint64_t row = 0;
        std::uint32_t hits = 0;
        std::uint64_t lruStamp = 0;
        bool valid = false;
    };

    bool recordZeroHitRows_;
    std::uint64_t lruClock_ = 0;
    /** Per-bank table; all-invalid until the bank's first record. */
    std::array<std::vector<Entry>, kMaxBanksPerChannel> tables_;
};

/** Row-Based Page Policy: 4 most-accessed-row registers per bank. */
class RbppPolicy : public PredictivePolicyBase
{
  public:
    explicit RbppPolicy(std::uint32_t marrsPerBank = 4)
        : PredictivePolicyBase(marrsPerBank, false)
    {
        mc_assert(marrsPerBank >= 1, "RBPP needs a MARR per bank");
    }
};

/** Access-Based Page Policy: 16-entry per-bank history table. */
class AbppPolicy : public PredictivePolicyBase
{
  public:
    explicit AbppPolicy(std::uint32_t entriesPerBank = 16)
        : PredictivePolicyBase(entriesPerBank, true)
    {
        mc_assert(entriesPerBank >= 1, "ABPP needs a table entry per bank");
    }
};

/** Timer-based closure: precharge after a fixed idle time. */
class TimerPolicy : public PagePolicy
{
  public:
    /** @param idleDramCycles Idle cycles before closing the row. */
    explicit TimerPolicy(std::uint32_t idleDramCycles = 32,
                         const ClockDomains &clk = kBaselineClocks)
        : idleTicks_(clk.dramToTicks(DramCycles{idleDramCycles}))
    {
    }

    bool
    shouldClose(const PageQuery &q) override
    {
        return !q.pendingHit && q.now - q.lastAccessAt >= idleTicks_;
    }
    Tick
    nextCloseEventAt(const PageQuery &q) const override
    {
        return q.pendingHit ? kMaxTick : q.lastAccessAt + idleTicks_;
    }

  private:
    TickSpan idleTicks_;
};

/**
 * Two-level adaptive closure predictor.
 *
 * Each bank keeps a history register of the last @p historyBits
 * activation outcomes (1 = the activation received exactly one access,
 * so eager closure would have been right) indexing a table of 2-bit
 * saturating counters, exactly like a local branch predictor. While
 * the counter predicts "single access", the policy closes the row as
 * soon as it has been accessed and no queued hit remains; otherwise it
 * behaves like open-adaptive and waits for a pending conflict.
 */
class HistoryPolicy : public PagePolicy
{
  public:
    /** @param historyBits History register width, at most 16. */
    explicit HistoryPolicy(std::uint32_t historyBits = 4);

    bool shouldClose(const PageQuery &q) override;
    void onPrecharge(std::uint32_t bank, std::uint64_t row,
                     std::uint32_t accesses) override;

    /** True if the bank's predictor currently predicts single access. */
    bool predictsSingleAccess(std::uint32_t bank) const;

  private:
    struct BankPredictor
    {
        std::uint32_t history = 0;
        std::vector<std::uint8_t> counters; ///< 2-bit, init weakly-taken.
    };

    std::uint32_t historyMask_;
    std::array<BankPredictor, kMaxBanksPerChannel> banks_;
};

} // namespace mcsim

#endif // CLOUDMC_MEM_PAGE_POLICIES_HH
