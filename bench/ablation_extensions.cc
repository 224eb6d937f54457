/**
 * @file
 * Ablation bench for the design choices DESIGN.md calls out beyond
 * the paper's evaluation:
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
           const std::vector<std::pair<std::string, SimConfig>> &configs,
           ExperimentRunner &runner)
{
    // Simulate the whole study in one parallel batch; the reporting
    // loop below then resolves every point from the memo cache.
    std::vector<SimConfig> sweep;
    for (const auto &[label, cfg] : configs)
        sweep.push_back(cfg);
    bench::prefetchSweep(runner, sweep,
                         {kRepWorkloads.begin(), kRepWorkloads.end()});

    TextTable table;
    std::vector<std::string> header{"workload"};
    for (const auto &[label, cfg] : configs)
        header.push_back(label);
    table.setHeader(header);
    for (auto wl : kRepWorkloads) {
        std::vector<std::string> row{workloadAcronym(wl)};
        const double base = runner.run(wl, configs.front().second).userIpc;
        for (const auto &[label, cfg] : configs) {
            row.push_back(
                TextTable::num(runner.run(wl, cfg).userIpc / base, 3));
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
        std::vector<std::pair<std::string, SimConfig>> configs;
        for (auto kind : {SchedulerKind::FrFcfs, SchedulerKind::Fcfs,
                          SchedulerKind::FcfsBanks, SchedulerKind::Fqm}) {
            SimConfig cfg = SimConfig::baseline();
            cfg.scheduler = kind;
            configs.emplace_back(schedulerKindName(kind), cfg);
        }
        printStudy("Ablation 1: excluded schedulers", configs, runner);
    }

    // 2. Extension page policies.
    {
        std::vector<std::pair<std::string, SimConfig>> configs;
        for (auto kind :
             {PagePolicyKind::OpenAdaptive, PagePolicyKind::Open,
              PagePolicyKind::Close, PagePolicyKind::Timer}) {
            SimConfig cfg = SimConfig::baseline();
            cfg.pagePolicy = kind;
            configs.emplace_back(pagePolicyKindName(kind), cfg);
        }
        printStudy("Ablation 2: excluded page policies", configs, runner);
    }

    // 3. Write-drain watermark sensitivity.
    {
        std::vector<std::pair<std::string, SimConfig>> configs;
        const std::array<std::pair<std::size_t, std::size_t>, 3> marks = {
            {{32, 8}, {16, 4}, {48, 16}}};
        for (const auto &[high, low] : marks) {
            SimConfig cfg = SimConfig::baseline();
            cfg.controller.writeDrainHigh = high;
            cfg.controller.writeDrainLow = low;
            configs.emplace_back(
                "drain" + std::to_string(high) + "/" +
                    std::to_string(low),
                cfg);
        }
        printStudy("Ablation 3: write-drain watermarks", configs, runner);
    }
    return 0;
}
