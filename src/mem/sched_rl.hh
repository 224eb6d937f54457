/**
 * @file
 * Reinforcement-learning memory scheduler (Ipek et al., ISCA 2008).
 *
 * A SARSA agent picks the DRAM command to issue each controller cycle.
 * The Q-function is approximated with CMAC-style hashed tile coding:
 * N small tables are indexed by independent hashes of the quantized
 * (state, action) features and their values are summed. With a small
 * probability epsilon the agent explores by picking a random legal
 * action. The reward is +1 when the chosen action is a column access
 * (a data-bus transfer — the throughput objective) and 0 otherwise.
 *
 * State features, quantized to small ranges (per the original design's
 * spirit): read queue length, write queue length, number of pending
 * requests that would row-hit, and the drain phase. Action features:
 * command type, row-hit flag, and the requesting core's load class.
 */

#ifndef CLOUDMC_MEM_SCHED_RL_HH
#define CLOUDMC_MEM_SCHED_RL_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "scheduler.hh"

namespace mcsim {

/** RL scheduler configuration (paper Table 3). */
struct RlConfig
{
    std::uint32_t numTables = 32;
    std::uint32_t tableSize = 256;
    double alpha = 0.1;    ///< Learning rate.
    double gamma = 0.95;   ///< Discount rate.
    double epsilon = 0.05; ///< Random action probability.
    /** Include no-action in the exploration set, as the original
     *  action vocabulary does. An exploratory no-op wastes the issue
     *  slot, which is precisely the overhead the paper blames for
     *  RL's losses on bandwidth-bound decision support workloads. */
    bool exploreNoAction = true;
    std::uint64_t starvationCycles = 10'000;
    std::uint64_t seed = 12345;
};

/** Self-optimizing RL-based scheduler. */
class RlScheduler : public Scheduler
{
  public:
    explicit RlScheduler(RlConfig cfg = RlConfig{},
                         const ClockDomains &clk = kBaselineClocks);

    int choose(const std::vector<Candidate> &cands, Tick now,
               const SchedulerContext &ctx) override;
    bool unifiedQueues() const override { return true; }

    /** Q-value for a quantized feature vector; exposed for tests. */
    double qValue(std::uint64_t features) const;

    /** Number of exploration (random) actions taken; for tests. */
    std::uint64_t explorations() const { return explorations_; }
    std::uint64_t updates() const { return updates_; }

  private:
    std::uint64_t featurize(const Candidate &c,
                            const SchedulerContext &ctx) const;
    std::uint32_t tableHash(std::uint64_t features,
                            std::uint32_t table) const;
    void update(double reward, double nextQ);

    RlConfig cfg_;
    ClockDomains clk_;
    Pcg32 rng_;
    std::vector<float> tables_; ///< numTables x tableSize, flattened.

    bool havePrev_ = false;
    std::uint64_t prevFeatures_ = 0;
    double prevQ_ = 0.0;
    double prevReward_ = 0.0;
    std::uint64_t explorations_ = 0;
    std::uint64_t updates_ = 0;
};

} // namespace mcsim

#endif // CLOUDMC_MEM_SCHED_RL_HH
