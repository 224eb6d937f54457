/**
 * @file
 * Every figure of the paper that is a workload x configuration table
 * (Figures 1-7 and 9-14) and the config-study ablations, declared
 * once in one table. A figure is a list of panels; each panel prints
 * one MetricSet field of one study, one row per workload plus the
 * three category averages, one column per configuration.
 *
 * Usage: figure NAME [--csv] [--fast N] [--threads N]
 *
 * Each distinct study of NAME runs once, as one ExperimentRunner
 * batch, however many panels print it. With no NAME or an unknown
 * one, the program lists every figure name and exits 1.
 */

#include <cstdio>
#include <cstring>
#include <map>

#include "bench_common.hh"
#include "dram/devices.hh"

using namespace mcsim;
using namespace mcsim::bench;

namespace {

using Point = ExperimentRunner::Point;
using Study = std::vector<Series> (*)(ExperimentRunner &);

/** One baseline column per scheduler in @p kinds. */
std::vector<Series>
schedulers(ExperimentRunner &runner,
           const std::vector<SchedulerKind> &kinds)
{
    std::vector<LabeledConfig> configs;
    for (auto kind : kinds) {
        SimConfig cfg = SimConfig::baseline();
        cfg.scheduler = kind;
        configs.push_back({schedulerKindName(kind), cfg});
    }
    return runConfigStudy(runner, configs);
}

/** One baseline column per page policy in @p kinds. */
std::vector<Series>
pagePolicies(ExperimentRunner &runner,
             const std::vector<PagePolicyKind> &kinds)
{
    std::vector<LabeledConfig> configs;
    for (auto kind : kinds) {
        SimConfig cfg = SimConfig::baseline();
        cfg.pagePolicy = kind;
        configs.push_back({pagePolicyKindName(kind), cfg});
    }
    return runConfigStudy(runner, configs);
}

/** Figures 1-7: the paper's five schedulers, FR-FCFS first. */
std::vector<Series>
schedulerStudy(ExperimentRunner &runner)
{
    return schedulers(runner,
                      {kPaperSchedulers.begin(), kPaperSchedulers.end()});
}

/** Figures 9-11: the paper's four page policies, OpenAdaptive
 *  first. */
std::vector<Series>
pagePolicyStudy(ExperimentRunner &runner)
{
    return pagePolicies(
        runner, {kPaperPagePolicies.begin(), kPaperPagePolicies.end()});
}

/**
 * Figures 12-14: the 1-channel baseline, then 2 and 4 channels, where
 * every mapping scheme is simulated and each workload's entry holds
 * its best-IPC scheme (the paper reports best-per-workload). One
 * batch covers the whole study.
 */
std::vector<Series>
channelStudy(ExperimentRunner &runner)
{
    std::vector<Point> points;
    for (auto wl : kAllWorkloads)
        points.push_back({wl, SimConfig::baseline()});
    for (std::uint32_t channels : {2u, 4u}) {
        for (auto wl : kAllWorkloads) {
            for (auto scheme : kAllMappingSchemes) {
                SimConfig cfg = SimConfig::baseline();
                cfg.dram.channels = channels;
                cfg.mapping = scheme;
                points.push_back({wl, cfg});
            }
        }
    }
    const auto metrics = runner.runAll(points);

    std::vector<Series> out(1);
    std::size_t i = 0;
    out[0].label = "1_channel";
    for (auto wl : kAllWorkloads)
        out[0].results[wl] = metrics[i++];
    for (std::uint32_t channels : {2u, 4u}) {
        Series s;
        s.label = std::to_string(channels) + "_channel";
        for (auto wl : kAllWorkloads) {
            const MetricSet *best = &metrics[i];
            for (std::size_t k = 0; k < kAllMappingSchemes.size(); ++k) {
                if (metrics[i + k].userIpc > best->userIpc)
                    best = &metrics[i + k];
            }
            i += kAllMappingSchemes.size();
            s.results[wl] = *best;
        }
        out.push_back(std::move(s));
    }
    return out;
}

/**
 * Device ablation: the whole DRAM device registry on the otherwise
 * unchanged baseline, DDR3-1600 (Table 2) first. Each device brings
 * its own timings, bank count, power and command-bus clock, so the
 * clock domains are re-derived per device. The paper's claim that
 * scale-out workloads underuse the memory system predicts small IPC
 * spreads across speed grades.
 */
std::vector<Series>
deviceStudy(ExperimentRunner &runner)
{
    std::vector<LabeledConfig> configs;
    for (const DramDevice &dev : dramDeviceRegistry()) {
        SimConfig cfg = SimConfig::baseline();
        cfg.applyDevice(dev);
        configs.push_back({dev.name, cfg});
    }
    for (std::size_t i = 0; i < configs.size(); ++i) {
        if (configs[i].label == "DDR3-1600") {
            std::swap(configs[0], configs[i]);
            break;
        }
    }
    return runConfigStudy(runner, configs);
}

/**
 * Bank-group ablation: both group-bit placements on DDR4-2400 and
 * DDR5-4800. Interleaving rotates a streaming CAS train across groups
 * (tCCD_S) but splinters row locality; packing keeps a stream in one
 * group, where tCCD_L binds.
 */
std::vector<Series>
bankGroupStudy(ExperimentRunner &runner)
{
    std::vector<LabeledConfig> configs;
    for (const char *dev : {"DDR4-2400", "DDR5-4800"}) {
        for (const auto gm : kAllBankGroupMappings) {
            SimConfig cfg = SimConfig::baseline();
            cfg.applyDevice(dramDeviceOrDie(dev));
            cfg.bankGroupMapping = gm;
            const char *tag =
                gm == BankGroupMapping::GroupInterleaved ? "/int"
                                                         : "/pack";
            configs.push_back({std::string(dev) + tag, cfg});
        }
    }
    return runConfigStudy(runner, configs);
}

/** Permutation-interleaving ablation (the paper's Section 5 future
 *  work): both XOR schemes against the best paper scheme at 2 and 4
 *  channels, the 1-channel baseline first. */
std::vector<Series>
permutationStudy(ExperimentRunner &runner)
{
    std::vector<LabeledConfig> configs;
    configs.push_back({"1ch baseline", SimConfig::baseline()});
    for (std::uint32_t channels : {2u, 4u}) {
        for (auto scheme :
             {MappingScheme::RoChRaBaCo, MappingScheme::PermBaXor,
              MappingScheme::PermChBaXor}) {
            SimConfig cfg = SimConfig::baseline();
            cfg.dram.channels = channels;
            cfg.mapping = scheme;
            configs.push_back({std::to_string(channels) + "ch " +
                                   mappingSchemeName(scheme),
                               cfg});
        }
    }
    return runConfigStudy(runner, configs);
}

/** TCM ablation: Section 5 excludes TCM because "fairness is not an
 *  issue for scale-out workloads"; TCM and STFM against FR-FCFS,
 *  PAR-BS and ATLAS test that claim. */
std::vector<Series>
tcmStudy(ExperimentRunner &runner)
{
    return schedulers(runner,
                      {SchedulerKind::FrFcfs, SchedulerKind::ParBs,
                       SchedulerKind::Atlas, SchedulerKind::Tcm,
                       SchedulerKind::Stfm});
}

/** Energy ablation's page-policy half: Section 5 defers energy to
 *  future work; activate/precharge and standby energy per policy are
 *  directly measurable. */
std::vector<Series>
policyEnergyStudy(ExperimentRunner &runner)
{
    return pagePolicies(
        runner,
        {PagePolicyKind::OpenAdaptive, PagePolicyKind::CloseAdaptive,
         PagePolicyKind::Rbpp, PagePolicyKind::Abpp, PagePolicyKind::Timer,
         PagePolicyKind::History});
}

/** One printed table: a field of a study's results. */
struct Panel
{
    Study study;
    const char *title;
    const char *metric;
    double MetricSet::*field;
    /** Divide each value by the first column's value for that
     *  workload (the paper's normalization). */
    bool normalize;
    int precision;
};

/** A program name and the panels it prints, in order. */
struct Figure
{
    const char *name;
    std::vector<Panel> panels;
};

const std::vector<Figure> kFigures = {
    {"fig01_sched_ipc",
     {{schedulerStudy, "Figure 1: User IPC normalized to FR-FCFS",
       "user IPC", &MetricSet::userIpc, true, 3}}},
    {"fig02_sched_rowhit",
     {{schedulerStudy, "Figure 2: Row-buffer hit rate",
       "row-buffer hit rate (%)", &MetricSet::rowHitRatePct, false, 1}}},
    {"fig03_sched_latency",
     {{schedulerStudy,
       "Figure 3: Average memory access latency normalized to FR-FCFS",
       "avg memory access latency", &MetricSet::avgReadLatency, true,
       2}}},
    {"fig04_sched_mpki",
     {{schedulerStudy,
       "Figure 4: L2 misses per kilo user instructions (MPKI)",
       "L2 MPKI", &MetricSet::l2Mpki, false, 1}}},
    {"fig05_sched_readq",
     {{schedulerStudy, "Figure 5: Average read queue length",
       "avg read queue length", &MetricSet::avgReadQueue, false, 2}}},
    {"fig06_sched_writeq",
     {{schedulerStudy, "Figure 6: Average write queue length",
       "avg write queue length", &MetricSet::avgWriteQueue, false, 2}}},
    {"fig07_sched_bwutil",
     {{schedulerStudy, "Figure 7: Memory bandwidth utilization",
       "memory BW utilization (%)", &MetricSet::bwUtilPct, false, 1}}},
    {"fig09_pp_rowhit",
     {{pagePolicyStudy, "Figure 9: Row-buffer hit rate normalized to OAPM",
       "row-buffer hit rate", &MetricSet::rowHitRatePct, true, 3}}},
    {"fig10_pp_latency",
     {{pagePolicyStudy,
       "Figure 10: Average memory access latency normalized to OAPM",
       "avg memory access latency", &MetricSet::avgReadLatency, true,
       3}}},
    {"fig11_pp_ipc",
     {{pagePolicyStudy, "Figure 11: User IPC normalized to OAPM",
       "user IPC", &MetricSet::userIpc, true, 3}}},
    {"fig12_ch_ipc",
     {{channelStudy,
       "Figure 12: Normalized user IPC vs number of memory channels",
       "user IPC", &MetricSet::userIpc, true, 3}}},
    {"fig13_ch_rowhit",
     {{channelStudy,
       "Figure 13: Normalized row-buffer hit rate vs number of memory "
       "channels",
       "row-buffer hit rate", &MetricSet::rowHitRatePct, true, 3}}},
    {"fig14_ch_latency",
     {{channelStudy,
       "Figure 14: Normalized memory access latency vs number of memory "
       "channels",
       "avg memory access latency", &MetricSet::avgReadLatency, true,
       3}}},
    {"ablation_device",
     {{deviceStudy,
       "Device ablation (a): user IPC by DRAM device, normalized to "
       "DDR3-1600",
       "user IPC", &MetricSet::userIpc, true, 3},
      {deviceStudy, "Device ablation (b): mean read latency (core cycles)",
       "read latency", &MetricSet::avgReadLatency, false, 1},
      {deviceStudy, "Device ablation (c): DRAM average power (mW)",
       "avg power", &MetricSet::dramAvgPowerMw, false, 1}}},
    {"ablation_bankgroup",
     {{bankGroupStudy,
       "Bank-group ablation (a): user IPC by group-bit placement, "
       "normalized to DDR4-2400 group-interleaved",
       "user IPC", &MetricSet::userIpc, true, 3},
      {bankGroupStudy,
       "Bank-group ablation (b): mean read latency (core cycles)",
       "read latency", &MetricSet::avgReadLatency, false, 1},
      {bankGroupStudy,
       "Bank-group ablation (c): same-bank-group CAS fraction (%), "
       "the population tCCD_L spaces",
       "same-group CAS %", &MetricSet::sameGroupCasPct, false, 1}}},
    {"ablation_mapping",
     {{permutationStudy,
       "Permutation mapping ablation (a): user IPC normalized to the "
       "1-channel baseline",
       "user IPC", &MetricSet::userIpc, true, 3},
      {permutationStudy,
       "Permutation mapping ablation (b): row-buffer hit rate (%)",
       "row-buffer hit rate", &MetricSet::rowHitRatePct, false, 3}}},
    {"ablation_tcm",
     {{tcmStudy, "TCM ablation (a): user IPC normalized to FR-FCFS",
       "user IPC", &MetricSet::userIpc, true, 3},
      {tcmStudy,
       "TCM ablation (b): per-core IPC fairness (min/max, 1.0 = "
       "perfectly even)",
       "min/max per-core IPC", &MetricSet::ipcDisparity, false, 3}}},
    {"ablation_energy",
     {{schedulerStudy,
       "Energy ablation (a): DRAM energy by scheduler, normalized to "
       "FR-FCFS",
       "DRAM energy", &MetricSet::dramEnergyNj, true, 3},
      {policyEnergyStudy,
       "Energy ablation (b): DRAM energy by page policy, normalized "
       "to OpenAdaptive",
       "DRAM energy", &MetricSet::dramEnergyNj, true, 3}}},
};

/** @p s's value for @p wl, over the first column's when @p base is
 *  set. */
double
value(const Panel &p, const Series &s, const Series *base, WorkloadId wl)
{
    const double v = s.results.at(wl).*p.field;
    return base ? v / (base->results.at(wl).*p.field) : v;
}

/** One row per workload plus the three category averages (means of
 *  the printed values), one column per series. The title and metric
 *  head the text table; in CSV they head it, as `# ` comment lines,
 *  only when @p titleCsv is set (a figure of several panels), so a
 *  single-panel CSV is the bare table. */
void
printFigure(const Panel &p, const std::vector<Series> &series, bool csv,
            bool titleCsv)
{
    TextTable table;
    std::vector<std::string> header{"workload"};
    for (const auto &s : series)
        header.push_back(s.label);
    table.setHeader(header);

    const Series *base = p.normalize ? &series.front() : nullptr;
    for (auto wl : kAllWorkloads) {
        std::vector<std::string> row{workloadAcronym(wl)};
        for (const auto &s : series) {
            row.push_back(
                TextTable::num(value(p, s, base, wl), p.precision));
        }
        table.addRow(std::move(row));
    }
    for (auto cat :
         {WorkloadCategory::ScaleOut, WorkloadCategory::Transactional,
          WorkloadCategory::DecisionSupport}) {
        std::vector<std::string> row{std::string("Avg_") +
                                     workloadCategoryAcronym(cat)};
        for (const auto &s : series) {
            double sum = 0.0;
            int n = 0;
            for (auto wl : workloadsInCategory(cat)) {
                sum += value(p, s, base, wl);
                ++n;
            }
            row.push_back(TextTable::num(n ? sum / n : 0.0, p.precision));
        }
        table.addRow(std::move(row));
    }

    if (!csv || titleCsv) {
        const char *mark = csv ? "# " : "";
        std::printf("%s%s\n%s%s%s\n", mark, p.title, mark,
                    p.normalize ? "(normalized to the first column) " : "",
                    p.metric);
    }
    std::printf("%s\n",
                csv ? table.renderCsv().c_str() : table.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Figure *figure = nullptr;
    std::string names;
    for (const Figure &f : kFigures) {
        if (argc > 1 && std::strcmp(argv[1], f.name) == 0)
            figure = &f;
        names += std::string(" ") + f.name;
    }
    if (!figure) {
        const std::string what =
            argc > 1 ? std::string("unknown figure '") + argv[1] + "'"
                     : "missing figure name";
        std::fprintf(stderr, "error: %s; figures:%s\n", what.c_str(),
                     names.c_str());
        return 1;
    }
    const bool csv = sweepFlags(argc - 1, argv + 1);

    ExperimentRunner runner;
    std::map<Study, std::vector<Series>> results;
    for (const Panel &p : figure->panels) {
        if (!results.count(p.study))
            results[p.study] = p.study(runner);
    }
    for (const Panel &p : figure->panels) {
        printFigure(p, results.at(p.study), csv,
                    figure->panels.size() > 1);
    }
    std::fprintf(stderr, "[bench] %llu simulations run, %llu from cache\n",
                 static_cast<unsigned long long>(runner.simulationsRun()),
                 static_cast<unsigned long long>(runner.cacheHits()));
    return 0;
}
