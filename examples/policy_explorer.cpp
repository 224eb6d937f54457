/**
 * @file
 * Policy explorer: sweep every scheduler x page-policy combination for
 * one workload and print the user-IPC grid, normalized to the paper's
 * FR-FCFS + open-adaptive baseline. The tool a controller architect
 * would reach for when asking "which pairing suits my workload?".
 *
 * Usage: policy_explorer [workload-acronym] [--fast N]
 *   e.g. policy_explorer WS
 *        policy_explorer TPCH-Q6 --fast 4
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/table.hh"
#include "sim/options.hh"
#include "sim/experiment.hh"

using namespace mcsim;

namespace {

constexpr std::array<SchedulerKind, 9> kSchedulers = {
    SchedulerKind::FrFcfs, SchedulerKind::FcfsBanks, SchedulerKind::Fcfs,
    SchedulerKind::ParBs,  SchedulerKind::Atlas,     SchedulerKind::Rl,
    SchedulerKind::Fqm,    SchedulerKind::Tcm,       SchedulerKind::Stfm};

constexpr std::array<PagePolicyKind, 8> kPolicies = {
    PagePolicyKind::OpenAdaptive, PagePolicyKind::CloseAdaptive,
    PagePolicyKind::Rbpp,         PagePolicyKind::Abpp,
    PagePolicyKind::Open,         PagePolicyKind::Close,
    PagePolicyKind::Timer,        PagePolicyKind::History};

} // namespace

int
main(int argc, char **argv)
{
    std::string wanted = "DS";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "--list") == 0) {
            std::printf("usage: policy_explorer [workload] [--fast N]"
                        "\n\n%s",
                        ExperimentOptions::listText().c_str());
            return 0;
        } else if (std::strcmp(argv[i], "--fast") == 0 && i + 1 < argc) {
            setenv("CLOUDMC_FAST", argv[++i], 1);
        } else {
            wanted = argv[i];
        }
    }

    WorkloadId id = WorkloadId::DS;
    if (!tryWorkloadFromName(wanted, id)) {
        std::fprintf(stderr, "unknown workload '%s'; choose from:",
                     wanted.c_str());
        for (auto w : kAllWorkloads)
            std::fprintf(stderr, " %s", workloadAcronym(w));
        std::fprintf(stderr, "\n");
        return 1;
    }

    // The whole scheduler x policy grid as one parallel batch,
    // scheduler-major; its first point is the FR-FCFS + OpenAdaptive
    // baseline.
    std::vector<ExperimentRunner::Point> points;
    for (auto sched : kSchedulers) {
        for (auto pp : kPolicies) {
            SimConfig cfg = SimConfig::baseline();
            cfg.scheduler = sched;
            cfg.pagePolicy = pp;
            points.push_back({id, cfg});
        }
    }
    ExperimentRunner runner;
    const auto results = runner.runAll(points);
    const double baseIpc = results.front().userIpc;

    TextTable table;
    std::vector<std::string> header{"scheduler \\ policy"};
    for (auto pp : kPolicies)
        header.emplace_back(pagePolicyKindName(pp));
    table.setHeader(std::move(header));

    double bestIpc = 0.0;
    std::string bestLabel;
    std::size_t i = 0;
    for (auto sched : kSchedulers) {
        std::vector<std::string> row{schedulerKindName(sched)};
        for (auto pp : kPolicies) {
            const double ipc = results[i++].userIpc;
            if (ipc > bestIpc) {
                bestIpc = ipc;
                bestLabel = std::string(schedulerKindName(sched)) + " + " +
                            pagePolicyKindName(pp);
            }
            row.push_back(TextTable::num(ipc / baseIpc, 3));
        }
        table.addRow(std::move(row));
    }

    std::printf("policy explorer: %s\n", workloadAcronym(id));
    std::printf("user IPC normalized to FR-FCFS + OpenAdaptive "
                "(baseline IPC %.3f)\n\n%s\n",
                baseIpc, table.render().c_str());
    std::printf("best pairing: %s (%.1f%% vs baseline)\n",
                bestLabel.c_str(), 100.0 * (bestIpc / baseIpc - 1.0));
    std::printf("[%llu simulations run, %llu from cache]\n",
                static_cast<unsigned long long>(runner.simulationsRun()),
                static_cast<unsigned long long>(runner.cacheHits()));
    return 0;
}
