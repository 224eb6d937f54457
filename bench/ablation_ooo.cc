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
    ExperimentRunner runner;

    // Simulate every point of both parts in one parallel batch; the
    // reporting loops below then resolve from the memo cache.
    {
        std::vector<SimConfig> sweep;
        for (auto mlp : kMlpWindows) {
            SimConfig one = SimConfig::baseline();
            one.coreMlpOverride = mlp;
            sweep.push_back(one);
            SimConfig four = one;
            four.dram.channels = 4;
            four.mapping = MappingScheme::RoChRaBaCo;
            sweep.push_back(four);
            SimConfig fb = one;
            fb.scheduler = SchedulerKind::FcfsBanks;
            sweep.push_back(fb);
            SimConfig pb = one;
            pb.scheduler = SchedulerKind::ParBs;
            sweep.push_back(pb);
        }
        bench::prefetchSweep(runner, sweep,
                             {kScaleOut.begin(), kScaleOut.end()});
    }

    // (a) Channel-count benefit as MLP grows.
    {
        TextTable table;
        table.setHeader({"workload", "MLP", "1ch IPC", "4ch IPC",
                         "4ch/1ch", "1ch BW%"});
        for (auto wl : kScaleOut) {
            for (auto mlp : kMlpWindows) {
                SimConfig one = SimConfig::baseline();
                one.coreMlpOverride = mlp;
                SimConfig four = one;
                four.dram.channels = 4;
                four.mapping = MappingScheme::RoChRaBaCo;
                const MetricSet m1 = runner.run(wl, one);
                const MetricSet m4 = runner.run(wl, four);
                table.addRow({workloadAcronym(wl), std::to_string(mlp),
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
            for (auto mlp : kMlpWindows) {
                SimConfig fr = SimConfig::baseline();
                fr.coreMlpOverride = mlp;
                SimConfig fb = fr;
                fb.scheduler = SchedulerKind::FcfsBanks;
                SimConfig pb = fr;
                pb.scheduler = SchedulerKind::ParBs;
                const double ipcFr = runner.run(wl, fr).userIpc;
                table.addRow(
                    {workloadAcronym(wl), std::to_string(mlp),
                     TextTable::num(runner.run(wl, fb).userIpc / ipcFr,
                                    3),
                     TextTable::num(runner.run(wl, pb).userIpc / ipcFr,
                                    3)});
            }
        }
        std::printf("OoO ablation (b): scheduler gaps vs MLP window\n%s\n",
                    table.render().c_str());
    }
    return 0;
}
