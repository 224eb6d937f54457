/**
 * @file
 * TCM: Thread Cluster Memory scheduling (Kim et al., MICRO 2010).
 *
 * The paper's Section 5 notes TCM was excluded from the study because
 * "experiments with ATLAS and PAR-BS showed that fairness is not an
 * issue for scale-out workloads"; this implementation lets the repo
 * test that claim directly (see bench/ablation_tcm.cc).
 *
 * TCM divides time into quanta. During a quantum each core's memory
 * intensity (requests arriving at the controller) and attained
 * bandwidth (serviced CAS commands) are tracked. At the quantum
 * boundary cores are sorted by intensity and split into two clusters:
 *
 *  - the latency-sensitive cluster: the least intensive cores whose
 *    combined bandwidth stays below clusterFrac of the total; they are
 *    always prioritized, ranked least-intensive first.
 *  - the bandwidth-sensitive cluster: everybody else; their relative
 *    order is re-shuffled periodically ("insertion shuffle" in the
 *    original; a seeded random permutation here) so no core stays at
 *    the bottom long enough to be unfairly slowed.
 *
 * Priority order: starved requests, then cluster, then intra-cluster
 * rank, then row hits, then age. The original further weights the
 * shuffle by "niceness" (bank-level parallelism vs row locality);
 * that refinement is second-order for the studied workloads and is
 * left out here.
 */

#ifndef CLOUDMC_MEM_SCHED_TCM_HH
#define CLOUDMC_MEM_SCHED_TCM_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "scheduler.hh"

namespace mcsim {

/** TCM configuration (intervals in core cycles). */
struct TcmConfig
{
    std::uint64_t quantumCycles = 100'000; ///< Scaled like ATLAS's.
    std::uint64_t shuffleCycles = 800;     ///< BW-cluster re-ranking.
    double clusterFrac = 0.2; ///< Bandwidth share of the latency cluster.
    std::uint64_t starvationCycles = 50'000;
    std::uint64_t seed = 0x7c31;
};

/** Thread Cluster Memory scheduler. */
class TcmScheduler : public Scheduler
{
  public:
    explicit TcmScheduler(std::uint32_t numCores,
                          TcmConfig cfg = TcmConfig{},
                          const ClockDomains &clk = kBaselineClocks);

    int choose(const std::vector<Candidate> &cands, Tick now,
               const SchedulerContext &ctx) override;
    void onRequestArrived(const Request &req) override;
    void onRequestServiced(const Request &req) override;
    void tick(Tick now, const SchedulerContext &ctx) override;
    /** Next quantum or bandwidth-cluster shuffle deadline. */
    Tick
    nextEventAt(Tick) const override
    {
        return quantumEndsAt_ < nextShuffleAt_ ? quantumEndsAt_
                                               : nextShuffleAt_;
    }

    /** True if the core is in the latency-sensitive cluster. */
    bool
    inLatencyCluster(CoreId c) const
    {
        return latency_[coreSlot(c, numCores_)];
    }

    /** Priority of a core (lower = served first); for tests. */
    std::uint32_t
    corePriority(CoreId c) const
    {
        return prio_[coreSlot(c, numCores_)];
    }

    std::uint64_t quantaElapsed() const { return quanta_; }
    std::uint64_t shufflesDone() const { return shuffles_; }

  private:
    void newQuantum();
    void shuffleBandwidthCluster();

    std::uint32_t numCores_;
    ClockDomains clk_;
    TcmConfig cfg_;
    Pcg32 rng_;

    Tick quantumEndsAt_;
    Tick nextShuffleAt_;
    std::uint64_t quanta_ = 0;
    std::uint64_t shuffles_ = 0;

    std::vector<std::uint64_t> arrived_;  ///< Requests this quantum.
    std::vector<std::uint64_t> serviced_; ///< CAS issued this quantum.
    std::vector<bool> latency_;           ///< Cluster membership.
    std::vector<std::uint32_t> prio_;     ///< 0 = highest priority.
    std::vector<std::uint32_t> bwCores_;  ///< BW cluster, shuffle order.
};

} // namespace mcsim

#endif // CLOUDMC_MEM_SCHED_TCM_HH
