/**
 * @file
 * Baseline workload characterization: runs all twelve paper workloads
 * on the Table 2 baseline and prints the characteristics the study is
 * calibrated against (row-buffer hit rate, L2 MPKI, single-access
 * activation fraction, bandwidth utilization), next to the targets
 * read off the paper's figures (targetFor() below).
 *
 * Usage: characterize [--fast N]   (N divides the simulation windows)
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/table.hh"
#include "sim/options.hh"
#include "sim/experiment.hh"

using namespace mcsim;

namespace {

struct Target
{
    double rowHit, mpki, single, bw;
};

Target
targetFor(WorkloadId id)
{
    switch (id) {
      case WorkloadId::DS: return {30, 6, 88, 35};
      case WorkloadId::MR: return {30, 4, 88, 25};
      case WorkloadId::SS: return {25, 6, 90, 50};
      case WorkloadId::WF: return {55, 3, 77, 14};
      case WorkloadId::WS: return {35, 3, 85, 20};
      case WorkloadId::MS: return {50, 5, 76, 40};
      case WorkloadId::WSPEC99: return {35, 6, 80, 30};
      case WorkloadId::TPCC1: return {30, 9, 85, 35};
      case WorkloadId::TPCC2: return {33, 9, 82, 37};
      case WorkloadId::TPCHQ2: return {28, 16, 85, 50};
      case WorkloadId::TPCHQ6: return {27, 20, 86, 58};
      case WorkloadId::TPCHQ17: return {28, 18, 85, 54};
    }
    return {};
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && (std::string(argv[1]) == "--help" ||
                     std::string(argv[1]) == "--list")) {
        std::printf("usage: characterize [--fast N]\n\n%s",
                    ExperimentOptions::listText().c_str());
        return 0;
    }
    if (argc > 2 && std::string(argv[1]) == "--fast")
        setenv("CLOUDMC_FAST", argv[2], 1);

    ExperimentRunner runner;
    const SimConfig cfg = SimConfig::baseline();

    // Uncached workloads simulate concurrently as one batch.
    std::vector<ExperimentRunner::Point> points;
    for (auto id : kAllWorkloads)
        points.push_back({id, cfg});
    const auto metrics = runner.runAll(points);

    TextTable table;
    table.setHeader({"workload", "IPC", "rowhit%", "(tgt)", "MPKI",
                     "(tgt)", "1acc%", "(tgt)", "bw%", "(tgt)", "lat",
                     "rdQ", "wrQ"});
    std::size_t idx = 0;
    for (auto id : kAllWorkloads) {
        const MetricSet m = metrics[idx++];
        const Target t = targetFor(id);
        table.addRow({workloadAcronym(id), TextTable::num(m.userIpc, 2),
                      TextTable::num(m.rowHitRatePct, 1),
                      TextTable::num(t.rowHit, 0),
                      TextTable::num(m.l2Mpki, 1),
                      TextTable::num(t.mpki, 0),
                      TextTable::num(m.singleAccessPct, 1),
                      TextTable::num(t.single, 0),
                      TextTable::num(m.bwUtilPct, 1),
                      TextTable::num(t.bw, 0),
                      TextTable::num(m.avgReadLatency, 0),
                      TextTable::num(m.avgReadQueue, 1),
                      TextTable::num(m.avgWriteQueue, 1)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("simulated %llu points, %llu from cache\n",
                static_cast<unsigned long long>(runner.simulationsRun()),
                static_cast<unsigned long long>(runner.cacheHits()));
    return 0;
}
