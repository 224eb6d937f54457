/**
 * @file
 * Memory scheduling algorithm (MSA) interface.
 *
 * Each DRAM-clock cycle with a non-empty active pool (the read queue,
 * or the write queue while draining; both for unifiedQueues()
 * policies), the controller offers the scheduler the *issuable*
 * candidates only: every pool request whose next DRAM command (given
 * current bank state) is legal this cycle, in pool order. The pool
 * itself, in queue order, and its pending row-hit count ride in the
 * SchedulerContext for the policies that look past the issuable set.
 * The scheduler picks one candidate (or none). This factoring lets
 * request-level policies (FCFS, FR-FCFS, PAR-BS, ATLAS) and
 * command-level policies (RL) share one interface.
 *
 * The priority schedulers (FR-FCFS, PAR-BS, ATLAS, TCM, STFM, FQM)
 * state only a strict "a beats b" comparator and select through
 * Scheduler::pickBest, which owns the one tie rule: the first
 * candidate that no later candidate strictly beats, so equal
 * candidates resolve to the lowest index (the earlier queue position).
 * FCFS (pool front), FCFS_banks (per-bank pool heads) and RL keep
 * their own loops.
 */

#ifndef CLOUDMC_MEM_SCHEDULER_HH
#define CLOUDMC_MEM_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/commands.hh"
#include "request.hh"

namespace mcsim {

/** One issuable service option the scheduler may pick this cycle. */
struct Candidate
{
    Request *req = nullptr;      ///< The request this command advances.
    DramCommandType cmd = DramCommandType::Activate;
    bool isRowHit = false;       ///< CAS to an already-open row.
};

/** Per-core state slot of @p core: cores 0..numCores-1 own one each,
 *  every IO engine (core id >= numCores) shares slot numCores. */
inline std::uint32_t
coreSlot(CoreId core, std::uint32_t numCores)
{
    return core >= numCores ? numCores : core;
}

/**
 * A read-only view of the active pool in queue order: one queue, or
 * the read queue followed by the write queue. Each queue holds its
 * requests in arrival order (enqueue stamps arrivedAt = now, and now
 * never decreases), so the front of a queue is its oldest request.
 */
class PoolView
{
  public:
    PoolView() = default;
    explicit PoolView(const std::vector<Request *> &q)
        : head_(q.data()), headLen_(q.size())
    {
    }
    PoolView(const std::vector<Request *> &head,
             const std::vector<Request *> &tail)
        : head_(head.data()), tail_(tail.data()), headLen_(head.size()),
          tailLen_(tail.size())
    {
    }

    std::size_t size() const { return headLen_ + tailLen_; }
    bool empty() const { return size() == 0; }
    Request *
    operator[](std::size_t i) const
    {
        return i < headLen_ ? head_[i] : tail_[i - headLen_];
    }

  private:
    Request *const *head_ = nullptr;
    Request *const *tail_ = nullptr;
    std::size_t headLen_ = 0;
    std::size_t tailLen_ = 0;
};

/** Controller state visible to schedulers (beyond the candidates). */
struct SchedulerContext
{
    std::uint32_t numCores = 16;
    std::size_t readQueueLen = 0;
    std::size_t writeQueueLen = 0;
    bool drainingWrites = false;
    /** The active pool; the candidates are its issuable subset, in the
     *  same order. */
    PoolView pool;
    /** Pool requests whose row is open in their bank (issuable or
     *  not). Set for choose() only. */
    std::size_t pendingHits = 0;
};

/**
 * Abstract memory scheduling algorithm.
 *
 * Implementations must be deterministic given their seed and the call
 * sequence; all randomness comes from an internal Pcg32.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /**
     * Pick a candidate index to issue this cycle, or -1 to stay idle.
     * Called on every cycle the controller's active pool is non-empty,
     * with @p cands possibly empty (nothing issuable).
     */
    virtual int choose(const std::vector<Candidate> &cands, Tick now,
                       const SchedulerContext &ctx) = 0;

    /** A request entered the controller queues. */
    virtual void onRequestArrived(const Request &) {}

    /** The request's CAS was issued (it left the pool). */
    virtual void onRequestServiced(const Request &) {}

    /** Per controller-cycle bookkeeping (quantum counters etc.). */
    virtual void tick(Tick, const SchedulerContext &) {}

    /**
     * Event-kernel contract: the earliest tick > now at which tick()
     * would do anything, assuming no requests arrive or get serviced
     * in between. Policies whose tick() is a no-op (the default) or
     * whose state advances only on request events return kMaxTick;
     * quantum/decay/shuffle policies return their next deadline. The
     * kernel guarantees a tick() call at the first controller cycle at
     * or after the returned tick, which is exactly when the per-cycle
     * reference loop would have observed the deadline.
     */
    virtual Tick
    nextEventAt(Tick now) const
    {
        (void)now;
        return kMaxTick;
    }

    /**
     * True if the policy selects from reads and writes together every
     * cycle instead of using read/write drain phases. The paper notes
     * this for RL (Section 4.1.3): it "considers both reads and writes
     * when it selects the memory request to serve next".
     */
    virtual bool unifiedQueues() const { return false; }

  protected:
    /**
     * Index of the first candidate that no later candidate strictly
     * beats under @p better(a, b) ("a beats b"), or -1 if there is
     * none. Ties keep the lowest index.
     */
    template <typename Better>
    static int
    pickBest(const std::vector<Candidate> &cands, Better &&better)
    {
        int best = -1;
        for (std::size_t i = 0; i < cands.size(); ++i) {
            if (best < 0 || better(cands[i], cands[best]))
                best = static_cast<int>(i);
        }
        return best;
    }
};

} // namespace mcsim

#endif // CLOUDMC_MEM_SCHEDULER_HH
