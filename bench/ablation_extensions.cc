/**
 * @file
 * Ablation bench for design choices beyond the paper's evaluation:
 *
 *  1. FQM and strict single-queue FCFS schedulers (the paper excludes
 *     both; FQM as dominated, FCFS as evaluating only FCFS_banks).
 *  2. Pure Open / pure Close / Timer page policies versus the
 *     adaptive and predictive policies the paper studies.
 *  3. Write-drain watermark sensitivity (the paper attributes RL's
 *     short write queues to its unified read/write selection).
 *
 * Uses six representative workloads (two per category) to keep the
 * runtime modest.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace mcsim;

namespace {

constexpr std::array<WorkloadId, 6> kRepWorkloads = {
    WorkloadId::DS,      WorkloadId::WF,    WorkloadId::MS,
    WorkloadId::WSPEC99, WorkloadId::TPCC1, WorkloadId::TPCHQ6};

void
printStudy(const char *title,
           const std::vector<bench::LabeledConfig> &configs,
           ExperimentRunner &runner)
{
    const auto series = bench::runConfigStudy(
        runner, configs, {kRepWorkloads.begin(), kRepWorkloads.end()});

    TextTable table;
    std::vector<std::string> header{"workload"};
    for (const auto &lc : configs)
        header.push_back(lc.label);
    table.setHeader(header);
    for (auto wl : kRepWorkloads) {
        std::vector<std::string> row{workloadAcronym(wl)};
        const double base = series.front().results.at(wl).userIpc;
        for (const auto &s : series) {
            row.push_back(
                TextTable::num(s.results.at(wl).userIpc / base, 3));
        }
        table.addRow(std::move(row));
    }
    std::printf("%s (user IPC normalized to the first column)\n%s\n",
                title, table.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    bench::sweepFlags(argc, argv);
    ExperimentRunner runner;

    // 1. Extension schedulers.
    {
        std::vector<bench::LabeledConfig> configs;
        for (auto kind : {SchedulerKind::FrFcfs, SchedulerKind::Fcfs,
                          SchedulerKind::FcfsBanks, SchedulerKind::Fqm}) {
            SimConfig cfg = SimConfig::baseline();
            cfg.scheduler = kind;
            configs.push_back({schedulerKindName(kind), cfg});
        }
        printStudy("Ablation 1: excluded schedulers", configs, runner);
    }

    // 2. Extension page policies.
    {
        std::vector<bench::LabeledConfig> configs;
        for (auto kind :
             {PagePolicyKind::OpenAdaptive, PagePolicyKind::Open,
              PagePolicyKind::Close, PagePolicyKind::Timer}) {
            SimConfig cfg = SimConfig::baseline();
            cfg.pagePolicy = kind;
            configs.push_back({pagePolicyKindName(kind), cfg});
        }
        printStudy("Ablation 2: excluded page policies", configs, runner);
    }

    // 3. Write-drain watermark sensitivity.
    {
        std::vector<bench::LabeledConfig> configs;
        const std::array<std::pair<std::size_t, std::size_t>, 3> marks = {
            {{32, 8}, {16, 4}, {48, 16}}};
        for (const auto &[high, low] : marks) {
            SimConfig cfg = SimConfig::baseline();
            cfg.controller.writeDrainHigh = high;
            cfg.controller.writeDrainLow = low;
            configs.push_back({"drain" + std::to_string(high) + "/" +
                                   std::to_string(low),
                               cfg});
        }
        printStudy("Ablation 3: write-drain watermarks", configs, runner);
    }
    return 0;
}
