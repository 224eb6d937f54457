/**
 * @file
 * Quickstart: simulate one CloudSuite workload on the paper's Table 2
 * baseline system and print every MetricSet field.
 *
 * Usage: quickstart [workload-acronym]
 *   e.g. quickstart DS        (default)
 *        quickstart TPCH-Q6
 */

#include <cstdio>
#include <string>

#include "sim/options.hh"
#include "sim/system.hh"
#include "workload/presets.hh"

using namespace mcsim;

int
main(int argc, char **argv)
{
    const std::string wanted = argc > 1 ? argv[1] : "DS";
    if (wanted == "--help" || wanted == "--list") {
        std::printf("usage: quickstart [workload-acronym]\n\n%s",
                    ExperimentOptions::listText().c_str());
        return 0;
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

    const WorkloadParams workload = workloadPreset(id);
    SimConfig cfg = SimConfig::baseline();

    std::printf("cloudmc quickstart\n");
    std::printf("  workload   : %s (%s, %s)\n", workload.name.c_str(),
                workload.acronym.c_str(),
                workloadCategoryName(workload.category));
    std::printf("  system     : %u in-order cores @2GHz, 4MB L2, "
                "%u-channel DDR3-1600\n",
                workload.cores, cfg.dram.channels);
    std::printf("  controller : %s scheduling, %s page policy, %s\n",
                schedulerKindName(cfg.scheduler),
                pagePolicyKindName(cfg.pagePolicy),
                mappingSchemeName(cfg.mapping));
    std::printf("  window     : %llu warmup + %llu measured core cycles\n",
                static_cast<unsigned long long>(cfg.warmupCoreCycles),
                static_cast<unsigned long long>(cfg.measureCoreCycles));

    System system(cfg, workload);
    const MetricSet m = system.run();

    std::printf("\nresults\n");
    forEachMetricField([&](const char *name, auto member) {
        std::printf("  %-28s %s\n", name, formatMetric(m.*member).c_str());
    });
    return 0;
}
