/**
 * @file
 * Experiment harness robustness: the on-disk results cache must
 * survive corruption, format drift and concurrent-ish appends without
 * ever returning garbage — a corrupt row re-simulates, it never
 * poisons a figure.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/worker_pool.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload/synthetic.hh"

using namespace mcsim;

namespace {

std::string
tempCachePath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/cloudmc_expcache_" +
           tag + ".csv";
}

SimConfig
tinyConfig()
{
    SimConfig cfg = SimConfig::baseline();
    cfg.warmupCoreCycles = 50'000;
    cfg.measureCoreCycles = 100'000;
    return cfg;
}

} // namespace

TEST(ExperimentCache, CorruptLinesAreIgnored)
{
    const std::string path = tempCachePath("corrupt");
    {
        std::ofstream out(path);
        out << "not a csv line at all\n";
        out << "key-without-values,\n";
        out << "half,1.0,2.0\n";
        out << "\n";
    }
    ExperimentRunner runner(path);
    const MetricSet m = runner.run(WorkloadId::WS, tinyConfig());
    // The corrupt rows never match; a real simulation ran.
    EXPECT_EQ(runner.simulationsRun(), 1u);
    EXPECT_EQ(runner.cacheHits(), 0u);
    EXPECT_GT(m.userIpc, 0.0);
    std::remove(path.c_str());
}

TEST(ExperimentCache, OldFormatRowsResimulate)
{
    // A row with the key of a current configuration but too few value
    // fields (a pre-energy-model cache) must be dropped, not half-read.
    const std::string path = tempCachePath("oldformat");
    const SimConfig cfg = tinyConfig();
    const std::string key = ExperimentRunner::configKey(WorkloadId::WS, cfg);
    {
        std::ofstream out(path);
        out << key << ",1.5,100,30,5,1,10,20,80,1000,2000,30,40\n";
    }
    ExperimentRunner runner(path);
    (void)runner.run(WorkloadId::WS, cfg);
    EXPECT_EQ(runner.simulationsRun(), 1u);
    std::remove(path.c_str());
}

TEST(ExperimentCache, EnergyFieldsRoundtrip)
{
    const std::string path = tempCachePath("energy");
    std::remove(path.c_str());
    const SimConfig cfg = tinyConfig();
    MetricSet fresh;
    {
        ExperimentRunner runner(path);
        fresh = runner.run(WorkloadId::MS, cfg);
        EXPECT_GT(fresh.dramEnergyNj, 0.0);
        EXPECT_GT(fresh.dramAvgPowerMw, 0.0);
        EXPECT_GT(fresh.ipcDisparity, 0.0);
        EXPECT_LE(fresh.ipcDisparity, 1.0);
    }
    {
        ExperimentRunner runner(path);
        const MetricSet cached = runner.run(WorkloadId::MS, cfg);
        EXPECT_EQ(runner.simulationsRun(), 0u);
        // The CSV stores ~6 significant digits; compare relatively.
        EXPECT_NEAR(cached.dramEnergyNj, fresh.dramEnergyNj,
                    1e-5 * fresh.dramEnergyNj);
        EXPECT_NEAR(cached.dramAvgPowerMw, fresh.dramAvgPowerMw,
                    1e-5 * fresh.dramAvgPowerMw);
        EXPECT_NEAR(cached.ipcDisparity, fresh.ipcDisparity, 1e-5);
    }
    std::remove(path.c_str());
}

TEST(ExperimentCache, LatencyPercentilesRoundtrip)
{
    // Schema v2 persists the read-latency percentiles; a reloaded
    // entry must carry them instead of silently reporting 0.
    const std::string path = tempCachePath("percentiles");
    std::remove(path.c_str());
    const SimConfig cfg = tinyConfig();
    MetricSet fresh;
    {
        ExperimentRunner runner(path);
        fresh = runner.run(WorkloadId::DS, cfg);
        EXPECT_GT(fresh.readLatencyP50, 0.0);
        EXPECT_GE(fresh.readLatencyP95, fresh.readLatencyP50);
        EXPECT_GE(fresh.readLatencyP99, fresh.readLatencyP95);
    }
    {
        ExperimentRunner runner(path);
        const MetricSet cached = runner.run(WorkloadId::DS, cfg);
        EXPECT_EQ(runner.simulationsRun(), 0u);
        EXPECT_NEAR(cached.readLatencyP50, fresh.readLatencyP50,
                    1e-5 * fresh.readLatencyP50);
        EXPECT_NEAR(cached.readLatencyP95, fresh.readLatencyP95,
                    1e-5 * fresh.readLatencyP95);
        EXPECT_NEAR(cached.readLatencyP99, fresh.readLatencyP99,
                    1e-5 * fresh.readLatencyP99);
    }
    std::remove(path.c_str());
}

TEST(ExperimentCache, V1RowsStillLoadWithZeroPercentiles)
{
    // Pre-percentile (15-field) rows remain valid cache entries; only
    // the percentile fields default to 0.
    const std::string path = tempCachePath("v1row");
    const SimConfig cfg = tinyConfig();
    const std::string key =
        ExperimentRunner::configKey(WorkloadId::WS, cfg);
    {
        std::ofstream out(path);
        out << key
            << ",1.5,100,30,5,1,2,10,20,1000,2000,30,40,0.9,5000,120\n";
    }
    ExperimentRunner runner(path);
    const MetricSet m = runner.run(WorkloadId::WS, cfg);
    EXPECT_EQ(runner.simulationsRun(), 0u);
    EXPECT_EQ(runner.cacheHits(), 1u);
    EXPECT_DOUBLE_EQ(m.userIpc, 1.5);
    EXPECT_DOUBLE_EQ(m.dramAvgPowerMw, 120.0);
    EXPECT_DOUBLE_EQ(m.readLatencyP50, 0.0);
    EXPECT_DOUBLE_EQ(m.readLatencyP95, 0.0);
    EXPECT_DOUBLE_EQ(m.readLatencyP99, 0.0);
    std::remove(path.c_str());
}

TEST(ExperimentParallel, CustomGeneratorPointsRunUncached)
{
    // Custom-generator points (mixed workloads) go through the same
    // batch machinery; with an empty customKey they are never
    // memoized, and their results match a direct System run. The
    // runner scales windows by CLOUDMC_FAST but the direct System
    // does not, so pin the divisor for the comparison.
    const char *fastEnv = std::getenv("CLOUDMC_FAST");
    const std::string savedFast = fastEnv ? fastEnv : "";
    unsetenv("CLOUDMC_FAST");

    ExperimentRunner runner("-");
    ExperimentRunner::Point p;
    p.cfg = tinyConfig();
    p.makeGenerator = [] {
        return std::make_unique<SyntheticWorkload>(
            workloadPreset(WorkloadId::WS), 8ull << 30);
    };
    p.customCores = workloadPreset(WorkloadId::WS).cores;
    const auto batch =
        runner.runAll({p, p}, 2); // Same point twice: both simulate.
    EXPECT_EQ(runner.simulationsRun(), 2u);
    EXPECT_EQ(runner.cacheHits(), 0u);

    SimConfig cfg = tinyConfig();
    SyntheticWorkload gen(workloadPreset(WorkloadId::WS), 8ull << 30);
    System direct(cfg, gen, p.customCores);
    const MetricSet md = direct.run();
    EXPECT_EQ(batch[0].committedInstructions, md.committedInstructions);
    EXPECT_EQ(batch[0].memReads, md.memReads);
    EXPECT_EQ(batch[1].committedInstructions, md.committedInstructions);

    if (!savedFast.empty())
        setenv("CLOUDMC_FAST", savedFast.c_str(), 1);
}

TEST(ExperimentCache, MissingFileStartsEmpty)
{
    const std::string path = tempCachePath("missing");
    std::remove(path.c_str());
    ExperimentRunner runner(path);
    EXPECT_EQ(runner.cacheHits(), 0u);
    EXPECT_EQ(runner.simulationsRun(), 0u);
}

namespace {

/** Field-by-field equality, including the per-core vector. */
void
expectIdentical(const MetricSet &a, const MetricSet &b)
{
    EXPECT_EQ(a.userIpc, b.userIpc);
    EXPECT_EQ(a.avgReadLatency, b.avgReadLatency);
    EXPECT_EQ(a.readLatencyP50, b.readLatencyP50);
    EXPECT_EQ(a.readLatencyP95, b.readLatencyP95);
    EXPECT_EQ(a.readLatencyP99, b.readLatencyP99);
    EXPECT_EQ(a.rowHitRatePct, b.rowHitRatePct);
    EXPECT_EQ(a.l2Mpki, b.l2Mpki);
    EXPECT_EQ(a.avgReadQueue, b.avgReadQueue);
    EXPECT_EQ(a.avgWriteQueue, b.avgWriteQueue);
    EXPECT_EQ(a.bwUtilPct, b.bwUtilPct);
    EXPECT_EQ(a.singleAccessPct, b.singleAccessPct);
    EXPECT_EQ(a.perCoreIpc, b.perCoreIpc);
    EXPECT_EQ(a.ipcDisparity, b.ipcDisparity);
    EXPECT_EQ(a.dramEnergyNj, b.dramEnergyNj);
    EXPECT_EQ(a.dramAvgPowerMw, b.dramAvgPowerMw);
    EXPECT_EQ(a.committedInstructions, b.committedInstructions);
    EXPECT_EQ(a.measuredCycles, b.measuredCycles);
    EXPECT_EQ(a.memReads, b.memReads);
    EXPECT_EQ(a.memWrites, b.memWrites);
}

/** A 2-scheduler x 2-workload sweep of tiny simulation points. */
std::vector<ExperimentRunner::Point>
tinySweep()
{
    std::vector<ExperimentRunner::Point> points;
    for (auto kind : {SchedulerKind::FrFcfs, SchedulerKind::FcfsBanks}) {
        for (auto wl : {WorkloadId::WS, WorkloadId::TPCC1}) {
            SimConfig cfg = tinyConfig();
            cfg.scheduler = kind;
            ExperimentRunner::Point p;
            p.workload = wl;
            p.cfg = cfg;
            points.push_back(std::move(p));
        }
    }
    return points;
}

} // namespace

TEST(ExperimentParallel, RunAllMatchesSerialLoop)
{
    const auto sweep = tinySweep();
    // The whole sweep, and a lone point (fewer jobs than threads).
    for (const auto &points :
         {sweep, std::vector<ExperimentRunner::Point>{sweep.front()}}) {
        SCOPED_TRACE(points.size());
        // Serial reference: independent runner, caching disabled so
        // every point actually simulates.
        ExperimentRunner serial("-");
        std::vector<MetricSet> expected;
        for (const auto &p : points)
            expected.push_back(serial.run(p.workload, p.cfg));

        ExperimentRunner parallel("-");
        const auto got = parallel.runAll(points, 4);

        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            SCOPED_TRACE(i);
            expectIdentical(got[i], expected[i]);
        }
        EXPECT_EQ(parallel.simulationsRun(), points.size());
        EXPECT_EQ(parallel.cacheHits(), 0u);
    }
}

TEST(WorkerPool, RunsEveryPartyExactlyOnceWithCallerAsZero)
{
    WorkerPool pool(3);
    EXPECT_EQ(pool.workers(), 3u);
    for (int round = 0; round < 50; ++round) {
        std::vector<std::atomic<int>> hits(4);
        for (auto &h : hits)
            h.store(0);
        pool.run(4, [&](unsigned party) {
            hits[party].fetch_add(1, std::memory_order_relaxed);
        });
        for (unsigned s = 0; s < 4; ++s)
            EXPECT_EQ(hits[s].load(), 1) << "party " << s;
    }
    // Fewer parties than workers: the extras must stay asleep.
    std::atomic<int> count{0};
    pool.run(2, [&](unsigned) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 2);
    pool.run(1, [&](unsigned) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 3);
}

TEST(ExperimentParallel, CountersConsistentUnderConcurrency)
{
    const std::string path = tempCachePath("parallel");
    std::remove(path.c_str());

    const auto sweep = tinySweep();
    // Submit each point twice in one batch: 4 unique simulations, 4
    // duplicate references that must resolve as cache hits — exactly
    // what a serial run() loop over the same list would count.
    std::vector<ExperimentRunner::Point> points = sweep;
    points.insert(points.end(), sweep.begin(), sweep.end());

    {
        ExperimentRunner runner(path);
        const auto got = runner.runAll(points, 4);
        ASSERT_EQ(got.size(), points.size());
        EXPECT_EQ(runner.simulationsRun(), sweep.size());
        EXPECT_EQ(runner.cacheHits(), sweep.size());
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            SCOPED_TRACE(i);
            expectIdentical(got[i], got[i + sweep.size()]);
        }
    }

    // A fresh runner replays the whole batch from the on-disk cache.
    {
        ExperimentRunner runner(path);
        const auto got = runner.runAll(points, 4);
        EXPECT_EQ(runner.simulationsRun(), 0u);
        EXPECT_EQ(runner.cacheHits(), points.size());
        ASSERT_EQ(got.size(), points.size());
        for (const auto &m : got)
            EXPECT_GT(m.userIpc, 0.0);
    }
    std::remove(path.c_str());
}

TEST(ExperimentParallel, CacheFileHasNoPartialLines)
{
    const std::string path = tempCachePath("lines");
    std::remove(path.c_str());
    {
        ExperimentRunner runner(path);
        (void)runner.runAll(tinySweep(), 4);
    }
    // Every record must parse back; a fresh runner recalls all four.
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::size_t lines = 0;
    std::string line;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_NE(line.find(','), std::string::npos);
    }
    EXPECT_EQ(lines, 4u);

    ExperimentRunner runner(path);
    (void)runner.runAll(tinySweep(), 2);
    EXPECT_EQ(runner.simulationsRun(), 0u);
    EXPECT_EQ(runner.cacheHits(), 4u);
    std::remove(path.c_str());
}

TEST(ExperimentParallel, SingleThreadAndZeroThreadsStillWork)
{
    const auto points = tinySweep();
    ExperimentRunner one("-");
    const auto a = one.runAll(points, 1);
    ExperimentRunner zero("-");
    const auto b = zero.runAll(points, 0);
    ASSERT_EQ(a.size(), points.size());
    ASSERT_EQ(b.size(), points.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(i);
        expectIdentical(a[i], b[i]);
    }
}

TEST(ExperimentCache, KeyEncodesEveryStudiedDimension)
{
    // Beyond the basic distinctions (covered in test_system.cc), the
    // key must separate the extension dimensions too.
    const SimConfig a = SimConfig::baseline();
    SimConfig tcm = a;
    tcm.scheduler = SchedulerKind::Tcm;
    SimConfig hist = a;
    hist.pagePolicy = PagePolicyKind::History;
    SimConfig perm = a;
    perm.mapping = MappingScheme::PermBaXor;
    const auto ka = ExperimentRunner::configKey(WorkloadId::DS, a);
    EXPECT_NE(ka, ExperimentRunner::configKey(WorkloadId::DS, tcm));
    EXPECT_NE(ka, ExperimentRunner::configKey(WorkloadId::DS, hist));
    EXPECT_NE(ka, ExperimentRunner::configKey(WorkloadId::DS, perm));
}

TEST(ExperimentCache, KeyFingerprintsFullParameterSet)
{
    // Regression: the old key carried only the ATLAS quantum, so
    // sweeps over any other scheduler/controller tunable aliased to
    // one cached row and silently returned stale metrics.
    const SimConfig base = SimConfig::baseline();
    const auto kb = ExperimentRunner::configKey(WorkloadId::DS, base);

    SimConfig stfmAlpha = base;
    stfmAlpha.schedulerParams.stfm.alpha = 2.0;
    SimConfig tcmCluster = base;
    tcmCluster.schedulerParams.tcm.clusterFrac = 0.35;
    SimConfig tcmQuantum = base;
    tcmQuantum.schedulerParams.tcm.quantumCycles = 200'000;
    SimConfig rlEpsilon = base;
    rlEpsilon.schedulerParams.rl.epsilon = 0.2;
    SimConfig parbsCap = base;
    parbsCap.schedulerParams.parBs.batchingCap = 9;
    SimConfig drain = base;
    drain.controller.writeDrainHigh = 32;
    SimConfig refreshOff = base;
    refreshOff.refreshEnabled = false;
    SimConfig xbar = base;
    xbar.xbarLatencyCycles = 8;
    SimConfig ranks = base;
    ranks.dram.ranksPerChannel = 1;
    SimConfig tunedTrcd = base;
    tunedTrcd.timings.tRCD += 3;
    SimConfig tunedIdd0 = base;
    tunedIdd0.power.idd0 *= 2;

    for (const SimConfig *cfg :
         {&stfmAlpha, &tcmCluster, &tcmQuantum, &rlEpsilon, &parbsCap,
          &drain, &refreshOff, &xbar, &ranks, &tunedTrcd, &tunedIdd0}) {
        EXPECT_NE(kb, ExperimentRunner::configKey(WorkloadId::DS, *cfg));
    }
    // And the fingerprint is stable: same parameters, same key.
    EXPECT_EQ(kb, ExperimentRunner::configKey(WorkloadId::DS,
                                              SimConfig::baseline()));
}

TEST(ExperimentCache, PreParamsHashKeysMigrateToBaselineRow)
{
    // Schema v1-v3 keys lack the trailing parameter-hash segment; on
    // load they migrate to the baseline parameter set's fingerprint
    // (the only set the old benches could cache unambiguously) and
    // still satisfy a baseline-parameter lookup — but never one with
    // tuned parameters.
    const std::string path = tempCachePath("paramsmigrate");
    const SimConfig cfg = tinyConfig();
    std::string key = ExperimentRunner::configKey(WorkloadId::WS, cfg);
    const std::size_t tag = key.rfind("|p");
    ASSERT_NE(tag, std::string::npos);
    key.resize(tag); // Strip the v4 segment: a v3-format key.
    {
        std::ofstream out(path);
        out << key
            << ",1.5,100,30,5,1,2,10,20,1000,2000,30,40,0.9,5000,120,"
               "55,77,99\n";
    }
    ExperimentRunner runner(path);
    const MetricSet hit = runner.run(WorkloadId::WS, cfg);
    EXPECT_EQ(runner.simulationsRun(), 0u);
    EXPECT_EQ(runner.cacheHits(), 1u);
    EXPECT_DOUBLE_EQ(hit.userIpc, 1.5);
    EXPECT_DOUBLE_EQ(hit.readLatencyP99, 99.0);

    // Tuned parameters miss the migrated row and re-simulate.
    SimConfig tuned = cfg;
    tuned.schedulerParams.stfm.alpha = 5.0;
    (void)runner.run(WorkloadId::WS, tuned);
    EXPECT_EQ(runner.simulationsRun(), 1u);
    std::remove(path.c_str());
}

TEST(ExperimentCache, FairnessColumnsRoundtrip)
{
    // Schema v4 rows carry the fairness scalars and the per-core IPC /
    // slowdown lists; a reloaded entry must reproduce them.
    const std::string path = tempCachePath("v4roundtrip");
    std::remove(path.c_str());
    SimConfig cfg = tinyConfig();
    ExperimentRunner::Point p(WorkloadId::WS, cfg);
    ExperimentRunner::attachAloneBaseline(p);

    MetricSet fresh;
    {
        ExperimentRunner runner(path);
        fresh = runner.runAll({p}, 1).front();
        ASSERT_TRUE(fresh.hasFairness());
    }
    {
        ExperimentRunner runner(path);
        const MetricSet cached = runner.runAll({p}, 1).front();
        EXPECT_EQ(runner.simulationsRun(), 0u);
        ASSERT_EQ(cached.perCoreIpc.size(), fresh.perCoreIpc.size());
        ASSERT_EQ(cached.perCoreSlowdown.size(),
                  fresh.perCoreSlowdown.size());
        for (std::size_t c = 0; c < fresh.perCoreIpc.size(); ++c) {
            EXPECT_NEAR(cached.perCoreIpc[c], fresh.perCoreIpc[c],
                        1e-5 * fresh.perCoreIpc[c]);
            EXPECT_NEAR(cached.perCoreSlowdown[c],
                        fresh.perCoreSlowdown[c],
                        1e-5 * fresh.perCoreSlowdown[c]);
        }
        EXPECT_NEAR(cached.weightedSpeedup, fresh.weightedSpeedup,
                    1e-5 * fresh.weightedSpeedup);
        EXPECT_NEAR(cached.harmonicSpeedup, fresh.harmonicSpeedup,
                    1e-5 * fresh.harmonicSpeedup);
        EXPECT_NEAR(cached.maxSlowdown, fresh.maxSlowdown,
                    1e-5 * fresh.maxSlowdown);
    }
    std::remove(path.c_str());
}

TEST(ExperimentCache, KeySeparatesBankGroupAxes)
{
    // Schema v5: the bank-group count and the group-mapping option are
    // part of the key, so a grouped-timing run can never alias a row
    // simulated under the single-tCCD model or the other placement.
    const SimConfig base = SimConfig::baseline();
    SimConfig ddr4 = base;
    ddr4.applyDevice(dramDeviceOrDie("DDR4-2400"));
    SimConfig ddr4Packed = ddr4;
    ddr4Packed.bankGroupMapping = BankGroupMapping::GroupPacked;
    SimConfig ddr5 = base;
    ddr5.applyDevice(dramDeviceOrDie("DDR5-4800"));

    const auto kb = ExperimentRunner::configKey(WorkloadId::DS, base);
    const auto k4 = ExperimentRunner::configKey(WorkloadId::DS, ddr4);
    const auto k4p =
        ExperimentRunner::configKey(WorkloadId::DS, ddr4Packed);
    const auto k5 = ExperimentRunner::configKey(WorkloadId::DS, ddr5);
    EXPECT_NE(kb.find("|bg=1i"), std::string::npos) << kb;
    EXPECT_NE(k4.find("|bg=4i"), std::string::npos) << k4;
    EXPECT_NE(k4p.find("|bg=4p"), std::string::npos) << k4p;
    EXPECT_NE(k5.find("|bg=8i"), std::string::npos) << k5;
    EXPECT_NE(k4, k4p);

    // On a single-group device the two placements are the same
    // physical layout; the key normalizes so they share one row.
    SimConfig basePacked = base;
    basePacked.bankGroupMapping = BankGroupMapping::GroupPacked;
    EXPECT_EQ(kb, ExperimentRunner::configKey(WorkloadId::DS,
                                              basePacked));
}

TEST(ExperimentCache, V4KeysMigrateToSingleGroupFingerprint)
{
    // A v4-format row — key with device + params-hash segments but no
    // bank-group segment, 23 value columns — must load, satisfy a
    // baseline (single-group) lookup with sameGroupCasPct zeroed, and
    // never satisfy a grouped-device lookup.
    const std::string path = tempCachePath("v4migrate");
    const SimConfig cfg = tinyConfig();
    std::string key = ExperimentRunner::configKey(WorkloadId::WS, cfg);
    const std::size_t bg = key.find("|bg=1i");
    ASSERT_NE(bg, std::string::npos);
    key.erase(bg, 6); // Strip the v5 segment...
    const std::size_t be = key.find("|be=flat");
    ASSERT_NE(be, std::string::npos);
    key.erase(be, 8); // ...and the v6 segment: a v4-format key.
    {
        std::ofstream out(path);
        out << key
            << ",1.5,100,30,5,1,2,10,20,1000,2000,30,40,0.9,5000,120,"
               "55,77,99,1.1,1.2,1.3,,\n";
    }
    ExperimentRunner runner(path);
    const MetricSet hit = runner.run(WorkloadId::WS, cfg);
    EXPECT_EQ(runner.simulationsRun(), 0u);
    EXPECT_EQ(runner.cacheHits(), 1u);
    EXPECT_DOUBLE_EQ(hit.userIpc, 1.5);
    EXPECT_DOUBLE_EQ(hit.weightedSpeedup, 1.1);
    EXPECT_DOUBLE_EQ(hit.sameGroupCasPct, 0.0); // Pre-v5 column.

    // The same point on a grouped device misses and re-simulates.
    SimConfig ddr4 = cfg;
    ddr4.applyDevice(dramDeviceOrDie("DDR4-2400"));
    (void)runner.run(WorkloadId::WS, ddr4);
    EXPECT_EQ(runner.simulationsRun(), 1u);
    std::remove(path.c_str());
}

TEST(ExperimentCache, SameGroupCasColumnRoundtrips)
{
    // Schema v5 rows persist sameGroupCasPct; a reloaded entry must
    // reproduce it (single-group baseline: every CAS follows a CAS in
    // the only group, so the value is large and nonzero).
    const std::string path = tempCachePath("v5roundtrip");
    std::remove(path.c_str());
    const SimConfig cfg = tinyConfig();
    MetricSet fresh;
    {
        ExperimentRunner runner(path);
        fresh = runner.run(WorkloadId::WS, cfg);
        EXPECT_GT(fresh.sameGroupCasPct, 0.0);
    }
    {
        ExperimentRunner runner(path);
        const MetricSet cached = runner.run(WorkloadId::WS, cfg);
        EXPECT_EQ(runner.simulationsRun(), 0u);
        EXPECT_NEAR(cached.sameGroupCasPct, fresh.sameGroupCasPct,
                    1e-4 * fresh.sameGroupCasPct);
    }
    std::remove(path.c_str());
}

TEST(ExperimentCache, KeySeparatesBackends)
{
    // Schema v6: the memory backend (and, stacked, the vault geometry
    // plus the remap flag) is part of the key, so a stacked-backend
    // run can never alias a row simulated under the flat JEDEC model.
    const SimConfig base = SimConfig::baseline();
    SimConfig hmc = base;
    hmc.applyDevice(dramDeviceOrDie("HMC2-8GB"));
    SimConfig hmc8 = hmc;
    hmc8.setVaults(8);
    SimConfig hmcRemap = hmc;
    hmcRemap.remap.enabled = true;

    const auto kb = ExperimentRunner::configKey(WorkloadId::DS, base);
    const auto kh = ExperimentRunner::configKey(WorkloadId::DS, hmc);
    const auto k8 = ExperimentRunner::configKey(WorkloadId::DS, hmc8);
    const auto kr =
        ExperimentRunner::configKey(WorkloadId::DS, hmcRemap);
    EXPECT_NE(kb.find("|be=flat"), std::string::npos) << kb;
    EXPECT_NE(kh.find("|be=st16v8b|"), std::string::npos) << kh;
    EXPECT_NE(k8.find("|be=st8v8b|"), std::string::npos) << k8;
    EXPECT_NE(kr.find("|be=st16v8br|"), std::string::npos) << kr;
    EXPECT_NE(kh, k8);
    EXPECT_NE(kh, kr);

    // Remap *tuning* changes the parameter hash even though the
    // readable segment only carries the on/off flag.
    SimConfig tuned = hmcRemap;
    tuned.remap.hotFactor = 8.0;
    EXPECT_NE(kr, ExperimentRunner::configKey(WorkloadId::DS, tuned));
    // And the remap knobs are hashed only on the stacked backend, so
    // flat keys are byte-identical whatever the dormant struct holds.
    SimConfig flatTuned = base;
    flatTuned.remap.hotFactor = 8.0;
    EXPECT_EQ(kb, ExperimentRunner::configKey(WorkloadId::DS, flatTuned));
}

TEST(ExperimentCache, V5KeysMigrateToFlatFingerprint)
{
    // A v5-format row — key without the backend segment, 24 value
    // columns — must load, satisfy a flat-backend lookup with the
    // stacked columns zeroed, and never satisfy a stacked lookup.
    const std::string path = tempCachePath("v5migrate");
    const SimConfig cfg = tinyConfig();
    std::string key = ExperimentRunner::configKey(WorkloadId::WS, cfg);
    const std::size_t be = key.find("|be=flat");
    ASSERT_NE(be, std::string::npos);
    key.erase(be, 8); // Strip the v6 segment: a v5-format key.
    {
        std::ofstream out(path);
        out << key
            << ",1.5,100,30,5,1,2,10,20,1000,2000,30,40,0.9,5000,120,"
               "55,77,99,1.1,1.2,1.3,,,42.5\n";
    }
    ExperimentRunner runner(path);
    const MetricSet hit = runner.run(WorkloadId::WS, cfg);
    EXPECT_EQ(runner.simulationsRun(), 0u);
    EXPECT_EQ(runner.cacheHits(), 1u);
    EXPECT_DOUBLE_EQ(hit.userIpc, 1.5);
    EXPECT_DOUBLE_EQ(hit.sameGroupCasPct, 42.5);
    // Pre-v6 columns default to empty/zero.
    EXPECT_TRUE(hit.perVaultReadQueue.empty());
    EXPECT_EQ(hit.remapMigrations, 0u);
    EXPECT_DOUBLE_EQ(hit.vaultQueueImbalance, 0.0);

    // The same point on the stacked backend misses and re-simulates.
    SimConfig hmc = cfg;
    hmc.applyDevice(dramDeviceOrDie("HMC2-8GB"));
    hmc.setVaults(4);
    (void)runner.run(WorkloadId::WS, hmc);
    EXPECT_EQ(runner.simulationsRun(), 1u);
    std::remove(path.c_str());
}

TEST(ExperimentCache, StackedColumnsRoundtrip)
{
    // Schema v6 rows persist the per-vault occupancy list, the
    // imbalance scalar and the remap counters; a reloaded stacked row
    // must reproduce all of them.
    const std::string path = tempCachePath("v6roundtrip");
    std::remove(path.c_str());
    SimConfig cfg = tinyConfig();
    cfg.applyDevice(dramDeviceOrDie("HMC2-8GB"));
    cfg.setVaults(4);
    cfg.remap.enabled = true;
    cfg.remap.windowAccesses = 256; // Migrate within the tiny window.
    MetricSet fresh;
    {
        ExperimentRunner runner(path);
        fresh = runner.run(WorkloadId::WS, cfg);
        EXPECT_EQ(fresh.perVaultReadQueue.size(), 4u);
        EXPECT_GT(fresh.vaultQueueImbalance, 0.0);
    }
    {
        ExperimentRunner runner(path);
        const MetricSet cached = runner.run(WorkloadId::WS, cfg);
        EXPECT_EQ(runner.simulationsRun(), 0u);
        EXPECT_EQ(runner.cacheHits(), 1u);
        EXPECT_NEAR(cached.vaultQueueImbalance, fresh.vaultQueueImbalance,
                    1e-5 * fresh.vaultQueueImbalance);
        EXPECT_EQ(cached.remapMigrations, fresh.remapMigrations);
        EXPECT_EQ(cached.remapMigratedRows, fresh.remapMigratedRows);
        ASSERT_EQ(cached.perVaultReadQueue.size(),
                  fresh.perVaultReadQueue.size());
        for (std::size_t i = 0; i < fresh.perVaultReadQueue.size(); ++i) {
            EXPECT_NEAR(cached.perVaultReadQueue[i],
                        fresh.perVaultReadQueue[i],
                        1e-5 * fresh.perVaultReadQueue[i] + 1e-9);
        }
    }
    std::remove(path.c_str());
}

TEST(ExperimentCache, KeySeparatesDevicesAndClocks)
{
    // Schema v3: two devices (or two core clocks) must never alias to
    // one cached row — before the device axis existed they would have.
    const SimConfig base = SimConfig::baseline();
    SimConfig ddr4 = base;
    ddr4.applyDevice(dramDeviceOrDie("DDR4-2400"));
    SimConfig lp = base;
    lp.applyDevice(dramDeviceOrDie("LPDDR3-1600"));
    SimConfig fastCore = base;
    fastCore.setCoreMhz(3000);

    const auto kb = ExperimentRunner::configKey(WorkloadId::DS, base);
    EXPECT_NE(kb, ExperimentRunner::configKey(WorkloadId::DS, ddr4));
    EXPECT_NE(kb, ExperimentRunner::configKey(WorkloadId::DS, lp));
    EXPECT_NE(kb, ExperimentRunner::configKey(WorkloadId::DS, fastCore));
    // LPDDR3-1600 shares DDR3-1600's bus clock; only the name differs.
    EXPECT_NE(ExperimentRunner::configKey(WorkloadId::DS, ddr4),
              ExperimentRunner::configKey(WorkloadId::DS, lp));
    EXPECT_NE(kb.find("dev=DDR3-1600@2000:800"), std::string::npos);
}

TEST(ExperimentCache, LegacyKeysLoadAsBaselineDevice)
{
    // v1/v2-era rows had no device segment; everything they recorded
    // ran the DDR3-1600 baseline, so they migrate to that key instead
    // of being dropped — and never satisfy a different device.
    const std::string path = tempCachePath("legacykey");
    const SimConfig cfg = tinyConfig();
    std::string key = ExperimentRunner::configKey(WorkloadId::WS, cfg);
    const std::size_t tag = key.find("|dev=");
    ASSERT_NE(tag, std::string::npos);
    key.resize(tag); // Strip the v3 segment: a legacy-format key.
    {
        std::ofstream out(path);
        out << key
            << ",1.5,100,30,5,1,2,10,20,1000,2000,30,40,0.9,5000,120\n";
    }
    ExperimentRunner runner(path);
    const MetricSet hit = runner.run(WorkloadId::WS, cfg);
    EXPECT_EQ(runner.simulationsRun(), 0u);
    EXPECT_EQ(runner.cacheHits(), 1u);
    EXPECT_DOUBLE_EQ(hit.userIpc, 1.5);

    // The same point on another device misses and re-simulates.
    SimConfig ddr4 = cfg;
    ddr4.applyDevice(dramDeviceOrDie("DDR4-2400"));
    (void)runner.run(WorkloadId::WS, ddr4);
    EXPECT_EQ(runner.simulationsRun(), 1u);
    std::remove(path.c_str());
}

TEST(ExperimentCache, V6RowsLoadWithZeroTierColumns)
{
    // A v6-format row — 28 value columns, no tier counters — must
    // satisfy a non-tiered lookup with the schema-v7 columns zeroed:
    // non-tiered keys are byte-identical across v6 and v7.
    const std::string path = tempCachePath("v6migrate");
    const SimConfig cfg = tinyConfig();
    const std::string key =
        ExperimentRunner::configKey(WorkloadId::WS, cfg);
    EXPECT_EQ(key.find("+t"), std::string::npos) << key;
    {
        std::ofstream out(path);
        out << key
            << ",1.5,100,30,5,1,2,10,20,1000,2000,30,40,0.9,5000,120,"
               "55,77,99,1.1,1.2,1.3,,,42.5,0.25,3,7,\n";
    }
    ExperimentRunner runner(path);
    const MetricSet hit = runner.run(WorkloadId::WS, cfg);
    EXPECT_EQ(runner.simulationsRun(), 0u);
    EXPECT_EQ(runner.cacheHits(), 1u);
    EXPECT_DOUBLE_EQ(hit.userIpc, 1.5);
    EXPECT_EQ(hit.remapMigrations, 3u);
    // Schema-v7 columns default to zero.
    EXPECT_DOUBLE_EQ(hit.fastTierHitPct, 0.0);
    EXPECT_DOUBLE_EQ(hit.slowTierReadLatencyP99, 0.0);
    EXPECT_EQ(hit.tierMigrations, 0u);
    EXPECT_EQ(hit.tierMigratedRows, 0u);
    std::remove(path.c_str());
}

TEST(ExperimentCache, TierColumnsRoundtrip)
{
    // Schema v7 rows persist the tier hit fraction, the slow-tier p99
    // and the migration counters; a reloaded tiered row must
    // reproduce all of them.
    const std::string path = tempCachePath("v7roundtrip");
    std::remove(path.c_str());
    SimConfig cfg = tinyConfig();
    cfg.tier.enabled = true;
    cfg.tier.policy = TierPolicy::HotnessBased;
    cfg.tier.monitorWindowSamples = 64; // Migrate within a tiny run.
    MetricSet fresh;
    {
        ExperimentRunner runner(path);
        fresh = runner.run(WorkloadId::WS, cfg);
        EXPECT_GT(fresh.fastTierHitPct, 0.0);
        EXPECT_LT(fresh.fastTierHitPct, 100.0);
        EXPECT_GT(fresh.slowTierReadLatencyP99, 0.0);
    }
    {
        ExperimentRunner runner(path);
        const MetricSet cached = runner.run(WorkloadId::WS, cfg);
        EXPECT_EQ(runner.simulationsRun(), 0u);
        EXPECT_EQ(runner.cacheHits(), 1u);
        EXPECT_NEAR(cached.fastTierHitPct, fresh.fastTierHitPct,
                    1e-5 * fresh.fastTierHitPct);
        EXPECT_NEAR(cached.slowTierReadLatencyP99,
                    fresh.slowTierReadLatencyP99,
                    1e-5 * fresh.slowTierReadLatencyP99);
        EXPECT_EQ(cached.tierMigrations, fresh.tierMigrations);
        EXPECT_EQ(cached.tierMigratedRows, fresh.tierMigratedRows);
    }
    std::remove(path.c_str());
}

TEST(ExperimentCache, KeySeparatesTiers)
{
    // Schema v7: a tiered run never aliases the plain fast-tier row,
    // and policies / capacity splits / tier knobs never alias each
    // other — while non-tiered keys ignore the dormant tier struct.
    const SimConfig base = SimConfig::baseline();
    SimConfig tiered = base;
    tiered.tier.enabled = true;
    SimConfig alloy = tiered;
    alloy.tier.policy = TierPolicy::AlloyCache;
    SimConfig slim = tiered;
    slim.tier.fastCapacityPct = 25;
    SimConfig tuned = tiered;
    tuned.tier.slowLatencyDramCycles = 256;

    const auto kb = ExperimentRunner::configKey(WorkloadId::DS, base);
    const auto kt = ExperimentRunner::configKey(WorkloadId::DS, tiered);
    EXPECT_NE(kb, kt);
    EXPECT_NE(kt.find("+t50h"), std::string::npos) << kt;
    EXPECT_NE(kt, ExperimentRunner::configKey(WorkloadId::DS, alloy));
    EXPECT_NE(kt, ExperimentRunner::configKey(WorkloadId::DS, slim));
    EXPECT_NE(kt, ExperimentRunner::configKey(WorkloadId::DS, tuned));
    // Tier knobs are hashed only when the composition is enabled, so
    // non-tiered keys are byte-identical whatever the struct holds.
    SimConfig dormant = base;
    dormant.tier.fastCapacityPct = 25;
    dormant.tier.hotFactor = 8.0;
    EXPECT_EQ(kb, ExperimentRunner::configKey(WorkloadId::DS, dormant));
}
