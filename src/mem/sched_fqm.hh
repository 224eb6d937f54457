/**
 * @file
 * Fair Queuing Memory scheduler (Nesbit et al., MICRO 2006).
 *
 * Each (bank, core) pair keeps a virtual service-time counter that
 * advances when that core is serviced at that bank. A bank prioritizes
 * the core with the earliest virtual time — the core that has received
 * the least service from it — equalizing per-core bank bandwidth.
 *
 * The paper describes FQM in its background section but excludes it
 * from the evaluation because later schedulers dominate it; we
 * implement it as an extension and quantify it in the ablation bench.
 */

#ifndef CLOUDMC_MEM_SCHED_FQM_HH
#define CLOUDMC_MEM_SCHED_FQM_HH

#include <cstdint>
#include <vector>

#include "scheduler.hh"

namespace mcsim {

/** FQM scheduler. */
class FqmScheduler : public Scheduler
{
  public:
    explicit FqmScheduler(std::uint32_t numCores);

    int choose(const std::vector<Candidate> &cands, Tick now,
               const SchedulerContext &ctx) override;
    void onRequestServiced(const Request &req) override;

    /** Virtual time of @p core at bank @p bankIndex. */
    std::uint64_t
    virtualTime(CoreId core, std::uint32_t bankIndex) const
    {
        return vtime_[bankIndex * (numCores_ + 1) +
                      coreSlot(core, numCores_)];
    }

  private:
    std::uint32_t numCores_;
    /** Per-core virtual time of every bank, bank-major. */
    std::vector<std::uint64_t> vtime_;
};

} // namespace mcsim

#endif // CLOUDMC_MEM_SCHED_FQM_HH
