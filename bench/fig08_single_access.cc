/**
 * @file
 * Figure 8: Percentage of single-access row-buffer activations under
 * the baseline OAPM policy. One bar per workload in the paper; the
 * paper's headline observation is that 77%-90% of activations receive
 * exactly one access before closure.
 */

#include <algorithm>
#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mcsim;
    const bool csv = bench::sweepFlags(argc, argv);

    ExperimentRunner runner;
    const SimConfig cfg = SimConfig::baseline();

    std::vector<ExperimentRunner::Point> points;
    for (auto wl : kAllWorkloads)
        points.push_back({wl, cfg});
    const auto metrics = runner.runAll(points);

    TextTable table;
    table.setHeader({"workload", "1-access activations (%)"});
    double lo = 100.0, hi = 0.0;
    std::size_t i = 0;
    for (auto wl : kAllWorkloads) {
        const MetricSet &m = metrics[i++];
        lo = std::min(lo, m.singleAccessPct);
        hi = std::max(hi, m.singleAccessPct);
        table.addRow({workloadAcronym(wl),
                      TextTable::num(m.singleAccessPct, 1)});
    }
    if (!csv) {
        std::printf("Figure 8: Percentage of single-access row-buffer "
                    "activations under OAPM\n");
    }
    std::printf("%s\n",
                csv ? table.renderCsv().c_str() : table.render().c_str());
    std::printf("range: %.1f%% - %.1f%% (paper reports 77%%-90%%)\n", lo,
                hi);
    return 0;
}
