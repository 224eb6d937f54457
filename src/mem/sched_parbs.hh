/**
 * @file
 * Parallelism-Aware Batch Scheduling (Mutlu & Moscibroda, ISCA 2008).
 *
 * Requests are grouped into batches: when the current batch is fully
 * serviced, up to Batching-Cap of the oldest outstanding requests per
 * (core, bank) are marked. Marked requests are strictly prioritized
 * over unmarked ones (guaranteeing freedom from starvation). Within
 * the batch, cores are ranked shortest-job-first: the core whose
 * maximum per-bank marked-request count is smallest ranks highest.
 * Priority order: marked > row-hit > core rank > age.
 */

#ifndef CLOUDMC_MEM_SCHED_PARBS_HH
#define CLOUDMC_MEM_SCHED_PARBS_HH

#include <cstdint>
#include <vector>

#include "scheduler.hh"

namespace mcsim {

/** Configuration for PAR-BS (paper Table 3: Batching-Cap = 5). */
struct ParBsConfig
{
    std::uint32_t batchingCap = 5;
};

/** PAR-BS scheduler. */
class ParBsScheduler : public Scheduler
{
  public:
    explicit ParBsScheduler(std::uint32_t numCores,
                            ParBsConfig cfg = ParBsConfig{});

    int choose(const std::vector<Candidate> &cands, Tick now,
               const SchedulerContext &ctx) override;
    void onRequestServiced(const Request &req) override;

    /** Number of batches formed so far (for tests). */
    std::uint64_t batchesFormed() const { return batchesFormed_; }

    /** Current rank of a core; lower value = higher priority. */
    std::uint32_t
    coreRank(CoreId c) const
    {
        return rank_[coreSlot(c, numCores_)];
    }

  private:
    void formBatch(const PoolView &pool);
    void computeRanks(const PoolView &pool);

    std::uint32_t numCores_;
    ParBsConfig cfg_;
    std::uint64_t markedOutstanding_ = 0;
    std::uint64_t batchesFormed_ = 0;
    std::vector<std::uint32_t> rank_; ///< Per-core rank, 0 is best.
};

} // namespace mcsim

#endif // CLOUDMC_MEM_SCHED_PARBS_HH
