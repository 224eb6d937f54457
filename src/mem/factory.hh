/**
 * @file
 * Factories that construct schedulers and page policies by name, for
 * the experiment harness and command-line tools.
 */

#ifndef CLOUDMC_MEM_FACTORY_HH
#define CLOUDMC_MEM_FACTORY_HH

#include <array>
#include <memory>
#include <string>

#include "page_policy.hh"
#include "scheduler.hh"
#include "sched_atlas.hh"
#include "sched_parbs.hh"
#include "sched_rl.hh"
#include "sched_stfm.hh"
#include "sched_tcm.hh"

namespace mcsim {

/** All scheduling algorithms available. */
enum class SchedulerKind : std::uint8_t {
    FrFcfs,    ///< Paper baseline.
    FcfsBanks, ///< Paper's simple contender.
    ParBs,
    Atlas,
    Rl,
    Fcfs, ///< Strict single-queue FCFS (ablation).
    Fqm,  ///< Fair queuing (extension).
    Tcm,  ///< Thread Cluster Memory (extension; paper Section 5).
    Stfm, ///< Stall-Time Fair Memory (extension; paper reference [9]).
};

/** The five schedulers the paper's Figures 1-7 sweep, paper order. */
constexpr std::array<SchedulerKind, 5> kPaperSchedulers = {
    SchedulerKind::FrFcfs, SchedulerKind::FcfsBanks, SchedulerKind::ParBs,
    SchedulerKind::Atlas, SchedulerKind::Rl};

/** Every scheduler, paper set first, then the extensions. */
constexpr std::array<SchedulerKind, 9> kAllSchedulers = {
    SchedulerKind::FrFcfs, SchedulerKind::FcfsBanks, SchedulerKind::ParBs,
    SchedulerKind::Atlas,  SchedulerKind::Rl,        SchedulerKind::Fcfs,
    SchedulerKind::Fqm,    SchedulerKind::Tcm,       SchedulerKind::Stfm};

/** All page management policies available. */
enum class PagePolicyKind : std::uint8_t {
    OpenAdaptive, ///< Paper baseline.
    CloseAdaptive,
    Rbpp,
    Abpp,
    Open,    ///< Pure open-page (ablation).
    Close,   ///< Pure close-page (ablation).
    Timer,   ///< Timer-based closure (extension).
    History, ///< Two-level closure predictor (extension).
};

/** The four policies the paper's Figures 9-11 sweep, paper order. */
constexpr std::array<PagePolicyKind, 4> kPaperPagePolicies = {
    PagePolicyKind::OpenAdaptive, PagePolicyKind::CloseAdaptive,
    PagePolicyKind::Rbpp, PagePolicyKind::Abpp};

/** Every page policy, paper set first, then the extensions. */
constexpr std::array<PagePolicyKind, 8> kAllPagePolicies = {
    PagePolicyKind::OpenAdaptive, PagePolicyKind::CloseAdaptive,
    PagePolicyKind::Rbpp,         PagePolicyKind::Abpp,
    PagePolicyKind::Open,         PagePolicyKind::Close,
    PagePolicyKind::Timer,        PagePolicyKind::History};

/** Tunables for the parameterized schedulers (paper Table 3). */
struct SchedulerParams
{
    ParBsConfig parBs;
    AtlasConfig atlas;
    RlConfig rl;
    TcmConfig tcm;
    StfmConfig stfm;
};

/** Name lookups: the try* forms return false on unknown names. */
const char *schedulerKindName(SchedulerKind k);
bool trySchedulerKindFromName(const std::string &name, SchedulerKind &out);

const char *pagePolicyKindName(PagePolicyKind k);
bool tryPagePolicyKindFromName(const std::string &name,
                               PagePolicyKind &out);

/**
 * Construct a scheduler instance.
 * @param clk Clock domains the cycle-denominated tunables (quanta,
 *        starvation thresholds, decay intervals) are converted on.
 * @param timings Device timings for schedulers that model service
 *        latency (STFM's contention-free estimate).
 */
std::unique_ptr<Scheduler>
makeScheduler(SchedulerKind kind, std::uint32_t numCores,
              const SchedulerParams &params = SchedulerParams{},
              const ClockDomains &clk = kBaselineClocks,
              const DramTimings &timings = DramTimings::ddr3_1600());

/** Construct a page policy instance. */
std::unique_ptr<PagePolicy>
makePagePolicy(PagePolicyKind kind,
               const ClockDomains &clk = kBaselineClocks);

} // namespace mcsim

#endif // CLOUDMC_MEM_FACTORY_HH
