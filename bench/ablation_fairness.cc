/**
 * @file
 * Fairness-scheduler ablation with *measured* slowdowns: the paper's
 * central comparison (FR-FCFS vs the fairness proposals PAR-BS, ATLAS,
 * TCM, STFM) re-run with the metrics those proposals actually
 * optimize — per-core slowdown against alone-run baselines, weighted
 * speedup, harmonic-mean speedup, and maximum slowdown — instead of
 * the crude min/max per-core IPC ratio.
 *
 * Two settings are reported:
 *  - a paper preset (homogeneous scale-out; default WS), where the
 *    paper argues fairness scheduling is a non-issue, and
 *  - a heterogeneous MixedWorkload (light web + heavy TPC-H), the
 *    adversarial home turf those schedulers were designed for.
 *
 * Every (setting, scheduler) point and every alone-run baseline is
 * submitted as one ExperimentRunner::runAll batch and memoized in the
 * shared results cache, so a second invocation recalls everything —
 * baselines included — without simulating.
 *
 * Usage: ablation_fairness [--workload ACR] [--measure N] [--threads N]
 *                          [--csv]
 *        (defaults: WS, 4M measured core cycles, shared default cache)
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/table.hh"
#include "sim/experiment.hh"
#include "sim/spec.hh"
#include "workload/mixed.hh"

using namespace mcsim;

namespace {

const std::vector<SchedulerKind> kSchedulers = {
    SchedulerKind::FrFcfs, SchedulerKind::ParBs, SchedulerKind::Atlas,
    SchedulerKind::Tcm, SchedulerKind::Stfm};

void
printCase(const char *label, const std::vector<MetricSet> &metrics,
          std::size_t &i, bool csv)
{
    if (csv) {
        for (auto sched : kSchedulers) {
            const MetricSet &m = metrics[i++];
            std::printf("%s,%s,%.4f,%.4f,%.4f,%.4f,%.4f\n", label,
                        schedulerKindName(sched), m.userIpc,
                        m.weightedSpeedup, m.harmonicSpeedup,
                        m.maxSlowdown, m.ipcDisparity);
        }
        return;
    }
    TextTable table;
    table.setHeader({"scheduler", "total IPC", "wtd speedup",
                     "harm speedup", "max slowdown", "min/max IPC"});
    for (auto sched : kSchedulers) {
        const MetricSet &m = metrics[i++];
        table.addRow({schedulerKindName(sched),
                      TextTable::num(m.userIpc, 3),
                      TextTable::num(m.weightedSpeedup, 3),
                      TextTable::num(m.harmonicSpeedup, 3),
                      TextTable::num(m.maxSlowdown, 3),
                      TextTable::num(m.ipcDisparity, 3)});
    }
    std::printf("Fairness ablation: %s\n%s\n", label,
                table.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t measure = 4'000'000;
    std::string workload = "WS";
    bool csv = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--measure") == 0 && i + 1 < argc) {
            if (!parseUint(argv[++i], measure) || measure == 0) {
                std::fprintf(stderr, "error: --measure needs a nonzero "
                                     "cycle count, got '%s'\n",
                             argv[i]);
                return 1;
            }
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            setenv("CLOUDMC_THREADS", argv[++i], 1);
        } else if (std::strcmp(argv[i], "--workload") == 0 &&
                   i + 1 < argc) {
            workload = argv[++i];
        } else if (std::strcmp(argv[i], "--csv") == 0) {
            csv = true;
        }
    }
    WorkloadId preset = WorkloadId::WS;
    if (!tryWorkloadFromName(workload, preset)) {
        std::fprintf(stderr, "error: unknown workload '%s' for "
                             "--workload\n",
                     workload.c_str());
        return 1;
    }
    const std::vector<MixPart> mix = {{WorkloadId::WS, 8},
                                      {WorkloadId::TPCHQ6, 8}};
    const std::string mixLabel = "mix WS:8 + TPCH-Q6:8";

    // One batch: (preset + mix) x schedulers, each point carrying its
    // alone-run baseline(s); all memoized in the shared results cache.
    ExperimentRunner runner;
    std::vector<ExperimentRunner::Point> points;
    for (auto sched : kSchedulers) {
        SimConfig cfg = SimConfig::baseline();
        cfg.scheduler = sched;
        cfg.warmupCoreCycles = 1'000'000;
        cfg.measureCoreCycles = measure;
        ExperimentRunner::Point p(preset, cfg);
        ExperimentRunner::attachAloneBaseline(p);
        points.push_back(std::move(p));
    }
    for (auto sched : kSchedulers) {
        SimConfig cfg = SimConfig::baseline();
        cfg.scheduler = sched;
        cfg.warmupCoreCycles = 1'000'000;
        cfg.measureCoreCycles = measure;
        points.push_back(
            ExperimentRunner::mixedFairnessPoint(mix, cfg, 16ull << 30));
    }
    const auto metrics = runner.runAll(points);

    if (csv) {
        std::printf("case,scheduler,ipc,weighted_speedup,"
                    "harmonic_speedup,max_slowdown,ipc_disparity\n");
    }
    std::size_t i = 0;
    printCase((std::string("preset ") + workloadAcronym(preset)).c_str(),
              metrics, i, csv);
    printCase(mixLabel.c_str(), metrics, i, csv);
    std::printf("(%llu simulated, %llu cache hits)\n",
                static_cast<unsigned long long>(runner.simulationsRun()),
                static_cast<unsigned long long>(runner.cacheHits()));
    return 0;
}
