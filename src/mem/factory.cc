#include "factory.hh"

#include "common/log.hh"
#include "page_policies.hh"
#include "sched_basic.hh"
#include "sched_fqm.hh"

namespace mcsim {

const char *
schedulerKindName(SchedulerKind k)
{
    switch (k) {
      case SchedulerKind::FrFcfs: return "FR-FCFS";
      case SchedulerKind::FcfsBanks: return "FCFS_banks";
      case SchedulerKind::ParBs: return "PAR-BS";
      case SchedulerKind::Atlas: return "ATLAS";
      case SchedulerKind::Rl: return "RL";
      case SchedulerKind::Fcfs: return "FCFS";
      case SchedulerKind::Fqm: return "FQM";
      case SchedulerKind::Tcm: return "TCM";
      case SchedulerKind::Stfm: return "STFM";
    }
    return "???";
}

bool
trySchedulerKindFromName(const std::string &name, SchedulerKind &out)
{
    for (auto k : kAllSchedulers) {
        if (name == schedulerKindName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

const char *
pagePolicyKindName(PagePolicyKind k)
{
    switch (k) {
      case PagePolicyKind::OpenAdaptive: return "OpenAdaptive";
      case PagePolicyKind::CloseAdaptive: return "CloseAdaptive";
      case PagePolicyKind::Rbpp: return "RBPP";
      case PagePolicyKind::Abpp: return "ABPP";
      case PagePolicyKind::Open: return "Open";
      case PagePolicyKind::Close: return "Close";
      case PagePolicyKind::Timer: return "Timer";
      case PagePolicyKind::History: return "History";
    }
    return "???";
}

bool
tryPagePolicyKindFromName(const std::string &name, PagePolicyKind &out)
{
    for (auto k : kAllPagePolicies) {
        if (name == pagePolicyKindName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

std::unique_ptr<Scheduler>
makeScheduler(SchedulerKind kind, std::uint32_t numCores,
              const SchedulerParams &params, const ClockDomains &clk,
              const DramTimings &timings)
{
    switch (kind) {
      case SchedulerKind::FrFcfs:
        return std::make_unique<FrFcfsScheduler>();
      case SchedulerKind::FcfsBanks:
        return std::make_unique<FcfsBanksScheduler>();
      case SchedulerKind::ParBs:
        return std::make_unique<ParBsScheduler>(numCores, params.parBs);
      case SchedulerKind::Atlas:
        return std::make_unique<AtlasScheduler>(numCores, params.atlas,
                                                clk);
      case SchedulerKind::Rl:
        return std::make_unique<RlScheduler>(params.rl, clk);
      case SchedulerKind::Fcfs:
        return std::make_unique<FcfsScheduler>();
      case SchedulerKind::Fqm:
        return std::make_unique<FqmScheduler>(numCores);
      case SchedulerKind::Tcm:
        return std::make_unique<TcmScheduler>(numCores, params.tcm, clk);
      case SchedulerKind::Stfm:
        return std::make_unique<StfmScheduler>(numCores, params.stfm, clk,
                                               timings);
    }
    mc_panic("unreachable scheduler kind");
}

std::unique_ptr<PagePolicy>
makePagePolicy(PagePolicyKind kind, const ClockDomains &clk)
{
    switch (kind) {
      case PagePolicyKind::OpenAdaptive:
        return std::make_unique<OpenAdaptivePolicy>();
      case PagePolicyKind::CloseAdaptive:
        return std::make_unique<CloseAdaptivePolicy>();
      case PagePolicyKind::Rbpp:
        return std::make_unique<RbppPolicy>();
      case PagePolicyKind::Abpp:
        return std::make_unique<AbppPolicy>();
      case PagePolicyKind::Open:
        return std::make_unique<OpenPolicy>();
      case PagePolicyKind::Close:
        return std::make_unique<ClosePolicy>();
      case PagePolicyKind::Timer:
        return std::make_unique<TimerPolicy>(32, clk);
      case PagePolicyKind::History:
        return std::make_unique<HistoryPolicy>();
    }
    mc_panic("unreachable page policy kind");
}

} // namespace mcsim
