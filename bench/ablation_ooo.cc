/**
 * @file
 * Out-of-order hypothesis ablation: the paper's Section 5 limits the
 * study to in-order pods and hypothesizes that "aggressive out-of-order
 * designs might lead to different conclusions about how simple the
 * memory scheduling technique should be and the needed off-chip memory
 * bandwidth due to a potential increase in the MLP".
 *
 * This bench emulates increasingly aggressive cores by widening the
 * per-core MLP window (outstanding load misses: 1 = the paper's
 * in-order pod, 4 and 8 = OoO-like) and re-asks the two questions:
 *
 *  (a) does a 4-channel system start helping scale-out workloads?
 *  (b) does the FR-FCFS vs FCFS_banks gap widen?
 *
 * Usage: ablation_ooo [--fast N]
 */

#include <cstdio>

#include "bench_common.hh"

using namespace mcsim;

namespace {

constexpr std::array<WorkloadId, 4> kScaleOut = {
    WorkloadId::DS, WorkloadId::WS, WorkloadId::MR, WorkloadId::MS};

constexpr std::array<std::uint32_t, 3> kMlpWindows = {1, 4, 8};

} // namespace

int
main(int argc, char **argv)
{
    bench::sweepFlags(argc, argv);

    // Four configurations per MLP window, simulated as one parallel
    // batch: the 1-channel FR-FCFS baseline, 4 channels, FCFS_banks
    // and PAR-BS.
    enum Variant { kOneCh, kFourCh, kFcfsBanks, kParBs, kVariants };
    std::vector<bench::LabeledConfig> configs;
    for (auto mlp : kMlpWindows) {
        SimConfig one = SimConfig::baseline();
        one.coreMlpOverride = mlp;
        SimConfig four = one;
        four.dram.channels = 4;
        four.mapping = MappingScheme::RoChRaBaCo;
        SimConfig fb = one;
        fb.scheduler = SchedulerKind::FcfsBanks;
        SimConfig pb = one;
        pb.scheduler = SchedulerKind::ParBs;
        configs.insert(configs.end(),
                       {{"1ch", one}, {"4ch", four}, {"FCFS_banks", fb},
                        {"PAR-BS", pb}});
    }
    ExperimentRunner runner;
    const auto series = bench::runConfigStudy(
        runner, configs, {kScaleOut.begin(), kScaleOut.end()});
    const auto at = [&series](std::size_t mlpIdx, Variant v,
                              WorkloadId wl) -> const MetricSet & {
        return series[mlpIdx * kVariants + v].results.at(wl);
    };

    // (a) Channel-count benefit as MLP grows.
    {
        TextTable table;
        table.setHeader({"workload", "MLP", "1ch IPC", "4ch IPC",
                         "4ch/1ch", "1ch BW%"});
        for (auto wl : kScaleOut) {
            for (std::size_t i = 0; i < kMlpWindows.size(); ++i) {
                const MetricSet &m1 = at(i, kOneCh, wl);
                const MetricSet &m4 = at(i, kFourCh, wl);
                table.addRow({workloadAcronym(wl),
                              std::to_string(kMlpWindows[i]),
                              TextTable::num(m1.userIpc, 3),
                              TextTable::num(m4.userIpc, 3),
                              TextTable::num(m4.userIpc / m1.userIpc, 3),
                              TextTable::num(m1.bwUtilPct, 1)});
            }
        }
        std::printf("OoO ablation (a): channel benefit vs MLP window "
                    "(scale-out workloads)\n%s\n",
                    table.render().c_str());
    }

    // (b) Scheduler sensitivity as MLP grows.
    {
        TextTable table;
        table.setHeader(
            {"workload", "MLP", "FCFS_banks/FR-FCFS", "PAR-BS/FR-FCFS"});
        for (auto wl : kScaleOut) {
            for (std::size_t i = 0; i < kMlpWindows.size(); ++i) {
                const double ipcFr = at(i, kOneCh, wl).userIpc;
                table.addRow(
                    {workloadAcronym(wl), std::to_string(kMlpWindows[i]),
                     TextTable::num(at(i, kFcfsBanks, wl).userIpc / ipcFr,
                                    3),
                     TextTable::num(at(i, kParBs, wl).userIpc / ipcFr,
                                    3)});
            }
        }
        std::printf("OoO ablation (b): scheduler gaps vs MLP window\n%s\n",
                    table.render().c_str());
    }
    return 0;
}
