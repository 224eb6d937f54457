/**
 * @file
 * The memory controller: request queues, write-drain state machine,
 * refresh handling, command generation under a pluggable scheduling
 * algorithm and page management policy, and the statistics behind
 * every figure in the paper.
 *
 * One controller instance drives one DRAM channel. tick() must be
 * called once per DRAM command cycle; at most one DRAM command issues
 * per tick, with priority: refresh bookkeeping > the scheduler's pick
 * > an idle page-policy precharge.
 */

#ifndef CLOUDMC_MEM_MEM_CONTROLLER_HH
#define CLOUDMC_MEM_MEM_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/channel.hh"
#include "page_policy.hh"
#include "request.hh"
#include "scheduler.hh"

namespace mcsim {

/** Controller tuning knobs. */
struct MemControllerConfig
{
    /** Enter write-drain mode when the write queue reaches this. */
    std::size_t writeDrainHigh = 24;
    /** Leave write-drain mode when the write queue falls to this. */
    std::size_t writeDrainLow = 12;
    /** Drain opportunistically when reads are idle and writes exceed
     *  this (avoids hoarding writes forever on read-light phases). */
    std::size_t writeDrainIdle = 16;
    /** With no pending reads for this many DRAM cycles, drain writes
     *  regardless of queue depth so parked writes cannot starve. */
    std::uint32_t writeIdleDrainCycles = 128;
    /** Latency of read-from-write-queue forwarding, in DRAM cycles. */
    std::uint32_t forwardLatencyCycles = 2;
};

/** Aggregated controller statistics over a measurement window. */
struct MemControllerStats
{
    std::uint64_t servedReads = 0;
    std::uint64_t servedWrites = 0;
    std::uint64_t forwardedReads = 0;

    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t rowConflicts = 0;

    TickSpan readLatencyTicks; ///< Sum over delivered reads.
    std::uint64_t readLatencySamples = 0;

    /** Read latency distribution in core cycles (tail reporting). */
    LogHistogram readLatencyHist{24};

    TimeWeightedStat readQueueLen;
    TimeWeightedStat writeQueueLen;

    /** Column accesses per activation, sampled at each precharge. */
    SmallHistogram activationAccesses{32};

    std::vector<std::uint64_t> perCoreReads;
    std::vector<TickSpan> perCoreLatencyTicks;
};

/** Memory controller for one channel. */
class MemController
{
  public:
    /** Completion callback: the finished request plus the tick the
     *  controller completed it at (== the tick() argument). */
    using CompletionFn = std::function<void(Request *, Tick)>;

    MemController(Channel &channel, std::unique_ptr<Scheduler> scheduler,
                  std::unique_ptr<PagePolicy> pagePolicy,
                  std::uint32_t numCores,
                  MemControllerConfig cfg = MemControllerConfig{});

    /**
     * Hand a request to the controller. The controller keeps the
     * pointer until the completion callback fires (reads: when the
     * last data beat returns; writes: when the CAS issues).
     */
    void enqueue(Request *req, Tick now);

    /**
     * Advance one DRAM command cycle.
     *
     * Returns the next tick at which tick() must run again for the
     * simulation to stay cycle-exact: the next command cycle when this
     * one did (or could soon do) any work, otherwise the earliest
     * upcoming event — pending response delivery, a scheduler quantum
     * deadline, a refresh deadline, the first tick a queued request's
     * next command becomes timing-legal, a write-drain idle flip, or a
     * page-policy closure. Skipping the cycles in between is a no-op:
     * the event kernel relies on that, and enqueue() re-arms the
     * controller on arrivals. May be conservative (early), never late.
     */
    Tick tick(Tick now);

    /** Called for every completed request (reads and writes). */
    void
    setCompletionCallback(CompletionFn fn)
    {
        onComplete_ = std::move(fn);
    }

    std::size_t readQueueLen() const { return readQ_.size(); }
    std::size_t writeQueueLen() const { return writeQ_.size(); }
    bool drainingWrites() const { return drainingWrites_; }

    Scheduler &scheduler() { return *scheduler_; }
    Channel &channel() { return channel_; }

    MemControllerStats &stats() { return stats_; }
    const MemControllerStats &stats() const { return stats_; }
    void resetStats(Tick now);

    /**
     * Rebuild the per-bank index from the queues and the channel's
     * bank states and describe the first difference from the
     * incrementally kept one, or return "" when they agree. For tests.
     */
    std::string indexMismatch() const;

  private:
    /**
     * One queue's requests per bank, in queue order, with the counts
     * the scheduler and the page policy read. Bit Request::bankIndex
     * of a mask stands for that bank: DramGeometry::validate() caps a
     * channel at kMaxBanksPerChannel (64) banks. Vectors grow on use,
     * so an idle bank costs no request slots.
     */
    struct BankIndex
    {
        std::array<std::vector<Request *>, kMaxBanksPerChannel> reqs;
        /** Requests that match the bank's open row (0 while closed). */
        std::array<std::uint32_t, kMaxBanksPerChannel> hits{};
        /** Requests whose availableAt lies past their arrival. */
        std::array<std::uint32_t, kMaxBanksPerChannel> gated{};
        std::uint64_t banks = 0;      ///< Bit per bank holding requests.
        std::uint64_t gatedBanks = 0; ///< Bit per bank with gated > 0.
        std::size_t totalHits = 0;    ///< Sum of hits over the banks.
    };
    static constexpr std::uint32_t kRead = 0, kWrite = 1;

    void indexInsert(Request *req);
    void indexRemove(Request *req);
    /** Recount @p bankIndex's open-row hits after an ACT of @p row. */
    void indexActivate(std::uint32_t bankIndex, std::uint64_t row);

    /**
     * Earliest upcoming event for a quiescent controller (see tick()).
     * @p policyCloseEvent is the page-policy closure event computed by
     * this cycle's tryPolicyPrecharge() pass, so the bank scan is not
     * repeated.
     */
    Tick nextEventAt(Tick now, Tick policyCloseEvent);
    void deliverResponses(Tick now);
    void updateDrainMode(Tick now);
    bool tryRefresh(Tick now);
    /** Legality of every pool bank, then the issuable candidates in
     *  pool order and poolLegalAt_. */
    void buildCandidates(Tick now);
    void insertInPoolOrder(const Candidate &c);
    bool issueCandidate(const Candidate &cand, Tick now);
    /**
     * Issue a page-policy precharge if one is wanted and legal.
     * When nothing issues, @p nextCloseEvent (if non-null) receives
     * the earliest tick a closure could fire: a wanted-but-illegal
     * precharge's next-legal tick or the policy's own deadline.
     */
    bool tryPolicyPrecharge(Tick now, Tick *nextCloseEvent = nullptr);
    void serviceCas(Request *req, Tick now, Tick dataReadyAt);
    /** Sample @p bank's closing activation, tell the page policy and
     *  clear the bank's hit counts; every PRE (scheduler, page policy,
     *  refresh) goes through here. @p bankIndex is rank * banksPerRank
     *  + bank. */
    void recordPrecharge(std::uint32_t bankIndex, const Bank &bank);
    void removeFromQueue(std::vector<Request *> &q, Request *req);

    Channel &channel_;
    ClockDomains clk_; ///< Mirrored from the channel at construction.
    std::unique_ptr<Scheduler> scheduler_;
    std::unique_ptr<PagePolicy> pagePolicy_;
    std::uint32_t numCores_;
    std::uint32_t banksPerRank_; ///< Bank-index stride of one rank.
    MemControllerConfig cfg_;

    std::vector<Request *> readQ_;
    std::vector<Request *> writeQ_;
    std::array<BankIndex, 2> index_; ///< [kRead], [kWrite].
    std::uint32_t nextSeq_ = 0;      ///< Request::seq of the next enqueue.

    /**
     * The active transaction pool of this cycle: bit kRead and/or bit
     * kWrite. Page policies and the scheduler see the read queue in
     * read mode and the write queue while draining (both under
     * Scheduler::unifiedQueues()). Parked writes are not serviceable,
     * so treating them as pending conflicts would collapse
     * open-adaptive into close-adaptive whenever the write queue holds
     * a few random writebacks.
     */
    std::uint32_t activeQueues_ = 0;
    bool isActive(std::uint32_t q) const
    {
        return (activeQueues_ >> q) & 1;
    }
    /** Earliest tick a pool request's next command is legal, from
     *  this cycle's buildCandidates() (kMaxTick when it did not run). */
    Tick poolLegalAt_ = kMaxTick;
    /** Per-bank legal ticks, valid for the banks in legalBanks_ while
     *  the channel's issueCount() equals legalStamp_: cycles without
     *  an issue in between reuse them. */
    std::array<BankLegality, kMaxBanksPerChannel> legal_{};
    std::uint64_t legalBanks_ = 0;
    std::uint64_t legalStamp_ = 0;
    std::vector<Candidate> cands_; ///< Issuable only; reused each cycle.

    struct PendingResponse
    {
        Tick readyAt;
        Request *req;
        bool operator>(const PendingResponse &o) const
        {
            return readyAt > o.readyAt;
        }
    };
    std::priority_queue<PendingResponse, std::vector<PendingResponse>,
                        std::greater<PendingResponse>> responses_;

    bool drainingWrites_ = false;
    Tick lastReadPendingAt_; ///< Last tick the read queue was non-empty.
    CompletionFn onComplete_;
    MemControllerStats stats_;
};

} // namespace mcsim

#endif // CLOUDMC_MEM_MEM_CONTROLLER_HH
