/**
 * @file
 * Memory scheduling algorithm (MSA) interface.
 *
 * Each DRAM-clock cycle the controller enumerates, for every request
 * in the active pool (read queue, or write queue while draining), the
 * next DRAM command that request needs given current bank state, and
 * flags whether that command is issuable this cycle. The scheduler
 * picks one issuable candidate (or none). This factoring lets request-
 * level policies (FCFS, FR-FCFS, PAR-BS, ATLAS) and command-level
 * policies (RL) share one interface.
 *
 * The priority schedulers (FR-FCFS, PAR-BS, ATLAS, TCM, STFM, FQM)
 * state only a strict "a beats b" comparator and select through
 * Scheduler::pickBest, which owns the one tie rule: the first issuable
 * candidate that no later candidate strictly beats, so equal
 * candidates resolve to the lowest index (the earlier queue position).
 * FCFS, FCFS_banks (head-of-bank filter) and RL keep their own loops.
 */

#ifndef CLOUDMC_MEM_SCHEDULER_HH
#define CLOUDMC_MEM_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/commands.hh"
#include "request.hh"

namespace mcsim {

/** One service option the scheduler may pick this cycle. */
struct Candidate
{
    Request *req = nullptr;      ///< The request this command advances.
    DramCommandType cmd = DramCommandType::Activate;
    bool issuableNow = false;    ///< Legal per all DRAM constraints.
    bool isRowHit = false;       ///< CAS to an already-open row.
    /** Earliest tick the command becomes legal absent further issues
     *  (== now when issuableNow); the event kernel's wake-up hint. */
    Tick legalAt;
};

/** Per-core state slot of @p core: cores 0..numCores-1 own one each,
 *  every IO engine (core id >= numCores) shares slot numCores. */
inline std::uint32_t
coreSlot(CoreId core, std::uint32_t numCores)
{
    return core >= numCores ? numCores : core;
}

/** Controller state visible to schedulers (beyond the candidates). */
struct SchedulerContext
{
    std::uint32_t numCores = 16;
    std::size_t readQueueLen = 0;
    std::size_t writeQueueLen = 0;
    bool drainingWrites = false;
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
     * Only candidates with issuableNow set may be returned.
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
     * Index of the first issuable candidate that no later issuable
     * candidate strictly beats under @p better(a, b) ("a beats b"), or
     * -1 if none is issuable. Ties keep the lowest index.
     */
    template <typename Better>
    static int
    pickBest(const std::vector<Candidate> &cands, Better &&better)
    {
        int best = -1;
        for (std::size_t i = 0; i < cands.size(); ++i) {
            if (!cands[i].issuableNow)
                continue;
            if (best < 0 || better(cands[i], cands[best]))
                best = static_cast<int>(i);
        }
        return best;
    }
};

} // namespace mcsim

#endif // CLOUDMC_MEM_SCHEDULER_HH
