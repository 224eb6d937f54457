/**
 * @file
 * Experiment harness robustness: the on-disk results cache must
 * survive corruption, format drift and concurrent-ish appends without
 * ever returning garbage — a corrupt row re-simulates, it never
 * poisons a figure — and a recalled row must equal the fresh run bit
 * for bit.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cfloat>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/worker_pool.hh"
#include "sim/experiment.hh"
#include "sim/spec.hh"
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

/** Unsets CLOUDMC_FAST for its lifetime: the runner divides the
 *  windows by it and every key carries it. */
class FastEnvGuard
{
  public:
    FastEnvGuard()
    {
        const char *v = std::getenv("CLOUDMC_FAST");
        saved_ = v ? v : "";
        unsetenv("CLOUDMC_FAST");
    }
    ~FastEnvGuard()
    {
        if (!saved_.empty())
            setenv("CLOUDMC_FAST", saved_.c_str(), 1);
    }

  private:
    std::string saved_;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
}

/** Runs @p points into a fresh cache at @p tag, then requires a
 *  second runner over that cache to recall every point bit-identically
 *  (all MetricSet fields, the per-core lists included) without
 *  simulating anything. Returns the fresh results. */
std::vector<MetricSet>
expectExactRecall(const char *tag,
                  const std::vector<ExperimentRunner::Point> &points)
{
    const std::string path = tempCachePath(tag);
    std::remove(path.c_str());
    std::vector<MetricSet> fresh;
    {
        ExperimentRunner runner(path);
        fresh = runner.runAll(points, 2);
    }
    ExperimentRunner runner(path);
    const auto recalled = runner.runAll(points, 2);
    EXPECT_EQ(runner.simulationsRun(), 0u);
    // Alone-run baselines recall as hits of their own.
    EXPECT_GE(runner.cacheHits(), points.size());
    EXPECT_EQ(recalled.size(), points.size());
    for (std::size_t i = 0; i < points.size() && i < recalled.size();
         ++i) {
        SCOPED_TRACE(i);
        EXPECT_FALSE(fresh[i].perCoreCommitted.empty());
        EXPECT_EQ(metricMismatch(fresh[i], recalled[i]), "");
    }
    std::remove(path.c_str());
    return fresh;
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

SimConfig
stackedRemapConfig()
{
    SimConfig cfg = tinyConfig();
    cfg.applyDevice(dramDeviceOrDie("HMC2-8GB"));
    cfg.setVaults(4);
    cfg.remap.enabled = true;
    cfg.remap.windowAccesses = 256; // Migrate within the tiny window.
    return cfg;
}

SimConfig
tieredHotnessConfig()
{
    SimConfig cfg = tinyConfig();
    cfg.tier.enabled = true;
    cfg.tier.policy = TierPolicy::HotnessBased;
    cfg.tier.monitorWindowSamples = 64; // Migrate within a tiny run.
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
    const MetricSet m =
        runner.runAll({{WorkloadId::WS, tinyConfig()}}, 1)[0];
    // The corrupt rows never match; a real simulation ran.
    EXPECT_EQ(runner.simulationsRun(), 1u);
    EXPECT_EQ(runner.cacheHits(), 0u);
    EXPECT_GT(m.userIpc, 0.0);
    std::remove(path.c_str());
}

TEST(ExperimentCache, OldFormatRowsResimulate)
{
    // A positional row (bare comma-separated values, as caches written
    // before the name=value format hold) under the key of a current
    // configuration must be dropped, not half-read.
    const std::string path = tempCachePath("oldformat");
    const SimConfig cfg = tinyConfig();
    const std::string key = ExperimentRunner::configKey(WorkloadId::WS, cfg);
    writeFile(path, key + ",1.5,100,30,5,1,2,10,20,1000,2000,30,40,0.9,"
                          "5000,120,55,77,99,1.1,1.2,1.3,,,42.5,0.25,3,7,"
                          ",50,300,2,8\n");
    ExperimentRunner runner(path);
    (void)runner.runAll({{WorkloadId::WS, cfg}}, 1);
    EXPECT_EQ(runner.simulationsRun(), 1u);
    EXPECT_EQ(runner.cacheHits(), 0u);
    std::remove(path.c_str());
}

TEST(ExperimentCache, RowsWithBadFieldsResimulate)
{
    // Start from a real row and break it one way at a time: each
    // broken row must be rejected whole and its point re-simulated.
    const std::string path = tempCachePath("badfields");
    std::remove(path.c_str());
    const SimConfig cfg = tinyConfig();
    {
        ExperimentRunner runner(path);
        (void)runner.runAll({{WorkloadId::WS, cfg}}, 1);
    }
    std::string row = readFile(path);
    ASSERT_FALSE(row.empty());
    ASSERT_EQ(row.back(), '\n');
    row.pop_back();
    const std::size_t last = row.rfind(',');
    const std::size_t ipc = row.find(",user_ipc=");
    ASSERT_NE(ipc, std::string::npos);
    const std::size_t ipcEnd = row.find(',', ipc + 1);

    std::string unparseable = row;
    unparseable.insert(ipcEnd, "x");
    std::string renamed = row;
    renamed.replace(ipc + 1, 4, "USER");
    const std::string missing = row.substr(0, last);
    const std::string extra = row + ",bogus_field=1";
    const std::string reordered =
        row.substr(0, ipc) + row.substr(ipcEnd) +
        row.substr(ipc, ipcEnd - ipc);

    for (const std::string &bad :
         {unparseable, renamed, missing, extra, reordered}) {
        SCOPED_TRACE(bad);
        writeFile(path, bad + "\n");
        ExperimentRunner runner(path);
        (void)runner.runAll({{WorkloadId::WS, cfg}}, 1);
        EXPECT_EQ(runner.simulationsRun(), 1u);
    }
    // The intact row itself recalls.
    writeFile(path, row + "\n");
    ExperimentRunner runner(path);
    (void)runner.runAll({{WorkloadId::WS, cfg}}, 1);
    EXPECT_EQ(runner.simulationsRun(), 0u);
    std::remove(path.c_str());
}

TEST(ExperimentParallel, CustomGeneratorPointsRunUncached)
{
    // Custom-generator points (mixed workloads) go through the same
    // batch machinery; with an empty customKey they are never
    // memoized, and their results match a direct System run. The
    // runner scales windows by CLOUDMC_FAST but the direct System
    // does not, so pin the divisor for the comparison.
    FastEnvGuard guard;
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
    EXPECT_EQ(metricMismatch(batch[0], md), "");
    EXPECT_EQ(metricMismatch(batch[1], md), "");
}

TEST(ExperimentCache, RecallIsExact)
{
    // One batch mixing every kind of point recalls exactly.
    FastEnvGuard guard;
    const SimConfig cfg = tinyConfig();
    ExperimentRunner::Point fair(WorkloadId::MS, cfg);
    ExperimentRunner::attachAloneBaseline(fair);
    const std::vector<MixPart> parts = {{WorkloadId::WS, 2},
                                        {WorkloadId::TPCHQ6, 2}};
    const ExperimentRunner::Point mix =
        ExperimentRunner::mixedFairnessPoint(parts, cfg, 16ull << 30);
    const std::vector<MetricSet> fresh = expectExactRecall(
        "recall", {fair, mix, {WorkloadId::WS, stackedRemapConfig()},
                   {WorkloadId::DS, tieredHotnessConfig()}});
    ASSERT_EQ(fresh.size(), 4u);
    EXPECT_TRUE(fresh[0].hasFairness());
    EXPECT_TRUE(fresh[1].hasFairness());
    EXPECT_EQ(fresh[2].perVaultReadQueue.size(), 4u);
    EXPECT_GT(fresh[3].fastTierHitPct, 0.0);
}

TEST(ExperimentCache, EnergyFieldsRoundtrip)
{
    FastEnvGuard guard;
    const auto fresh =
        expectExactRecall("energy", {{WorkloadId::MS, tinyConfig()}});
    ASSERT_EQ(fresh.size(), 1u);
    EXPECT_GT(fresh[0].dramEnergyNj, 0.0);
    EXPECT_GT(fresh[0].dramAvgPowerMw, 0.0);
    EXPECT_GT(fresh[0].ipcDisparity, 0.0);
    EXPECT_LE(fresh[0].ipcDisparity, 1.0);
}

TEST(ExperimentCache, LatencyPercentilesRoundtrip)
{
    FastEnvGuard guard;
    const auto fresh = expectExactRecall(
        "percentiles", {{WorkloadId::DS, tinyConfig()}});
    ASSERT_EQ(fresh.size(), 1u);
    EXPECT_GT(fresh[0].readLatencyP50, 0.0);
    EXPECT_GE(fresh[0].readLatencyP95, fresh[0].readLatencyP50);
    EXPECT_GE(fresh[0].readLatencyP99, fresh[0].readLatencyP95);
}

TEST(ExperimentCache, FairnessColumnsRoundtrip)
{
    // The fairness scalars, the per-core IPC / slowdown lists and the
    // alone-run baselines all recall.
    FastEnvGuard guard;
    ExperimentRunner::Point p(WorkloadId::WS, tinyConfig());
    ExperimentRunner::attachAloneBaseline(p);
    const auto fresh = expectExactRecall("fairness", {p});
    ASSERT_EQ(fresh.size(), 1u);
    EXPECT_TRUE(fresh[0].hasFairness());
    EXPECT_FALSE(fresh[0].perCoreSlowdown.empty());
}

TEST(ExperimentCache, SameGroupCasColumnRoundtrips)
{
    // Single-group baseline: every CAS follows a CAS in the only
    // group, so the value is large and nonzero.
    FastEnvGuard guard;
    const auto fresh =
        expectExactRecall("samegroup", {{WorkloadId::WS, tinyConfig()}});
    ASSERT_EQ(fresh.size(), 1u);
    EXPECT_GT(fresh[0].sameGroupCasPct, 0.0);
}

TEST(ExperimentCache, StackedColumnsRoundtrip)
{
    // The per-vault occupancy list, the imbalance scalar and the
    // remap counters recall.
    FastEnvGuard guard;
    const auto fresh = expectExactRecall(
        "stacked", {{WorkloadId::WS, stackedRemapConfig()}});
    ASSERT_EQ(fresh.size(), 1u);
    EXPECT_EQ(fresh[0].perVaultReadQueue.size(), 4u);
    EXPECT_GT(fresh[0].vaultQueueImbalance, 0.0);
}

TEST(ExperimentCache, TierColumnsRoundtrip)
{
    // The tier hit fraction, the slow-tier p99 and the migration
    // counters recall.
    FastEnvGuard guard;
    const auto fresh = expectExactRecall(
        "tier", {{WorkloadId::WS, tieredHotnessConfig()}});
    ASSERT_EQ(fresh.size(), 1u);
    EXPECT_GT(fresh[0].fastTierHitPct, 0.0);
    EXPECT_LT(fresh[0].fastTierHitPct, 100.0);
    EXPECT_GT(fresh[0].slowTierReadLatencyP99, 0.0);
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
            expected.push_back(serial.runAll({p}, 1)[0]);

        ExperimentRunner parallel("-");
        const auto got = parallel.runAll(points, 4);

        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            SCOPED_TRACE(i);
            EXPECT_EQ(metricMismatch(got[i], expected[i]), "");
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
            EXPECT_EQ(metricMismatch(got[i], got[i + sweep.size()]), "");
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
        EXPECT_EQ(metricMismatch(a[i], b[i]), "");
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

TEST(ExperimentCache, KeySeparatesBankGroupAxes)
{
    // The bank-group count and the group-mapping option are part of
    // the key, so a grouped-timing run can never alias a row
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

TEST(ExperimentCache, KeySeparatesBackends)
{
    // The memory backend (and, stacked, the vault geometry
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

TEST(ExperimentCache, KeySeparatesDevicesAndClocks)
{
    // Two devices (or two core clocks) must never alias to one
    // cached row.
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

TEST(ExperimentCache, KeySeparatesTiers)
{
    // A tiered run never aliases the plain fast-tier row,
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

TEST(ExperimentCache, KeySeparatesWindowsToTheCycle)
{
    // The readable segment rounds the windows to kilocycles; the
    // parameter hash must still separate windows closer than that.
    const SimConfig base = SimConfig::baseline();
    SimConfig longer = base;
    longer.measureCoreCycles += 999;
    SimConfig warmer = base;
    warmer.warmupCoreCycles += 500;
    const auto kb = ExperimentRunner::configKey(WorkloadId::DS, base);
    const auto kl = ExperimentRunner::configKey(WorkloadId::DS, longer);
    const auto kw = ExperimentRunner::configKey(WorkloadId::DS, warmer);
    EXPECT_NE(kb, kl);
    EXPECT_NE(kb, kw);
    EXPECT_NE(kl, kw);
}

TEST(ExperimentCache, KeySeparatesEverySpecKey)
{
    // Every spec key must reach the cache key: a knob the fingerprint
    // missed would let two configurations share one cached row. Each
    // entry is a legal non-default value plus the context it needs.
    const char *tiered = "tier = on\n";
    const char *stacked = "device = HMC2-8GB\n";
    struct Probe
    {
        const char *value;
        const char *context;
    };
    const std::map<std::string, Probe> probes = {
        {"device", {"DDR4-2400", ""}},
        {"scheduler", {"TCM", ""}},
        {"policy", {"Close", ""}},
        {"mapping", {"PermBaXor", ""}},
        // Single-group devices normalize the placement away.
        {"group_mapping", {"GroupPacked", "device = DDR4-2400\n"}},
        {"channels", {"2", ""}},
        {"workload", {"WS", ""}},
        {"core_mhz", {"3000", ""}},
        {"warmup", {"1234567", ""}},
        {"measure", {"7654321", ""}},
        {"seed", {"7", ""}},
        {"refresh", {"off", ""}},
        {"backend", {"stacked", ""}},
        {"vaults", {"8", stacked}},
        {"remap", {"on", stacked}},
        {"tier", {"on", ""}},
        {"tier_policy", {"alloy_cache", tiered}},
        {"tier_latency", {"200", tiered}},
        {"tier_bw", {"25", tiered}},
        {"tier_capacity_pct", {"25", tiered}},
        {"tier_hot_factor", {"3.5", tiered}},
        {"tier_migration_cycles", {"32", tiered}},
        {"monitor_sample", {"8", tiered}},
        {"monitor_window", {"512", tiered}},
        {"monitor_min_regions", {"8", tiered}},
        {"monitor_max_regions", {"128", tiered}},
    };

    // A new key cannot skip this test. `fairness` is the one
    // exception: it attaches alone-run baselines, not a SimConfig
    // change.
    std::set<std::string> tableNames, probeNames = {"fairness"};
    for (const SpecKey &k : kSpecKeys)
        tableNames.insert(k.name);
    for (const auto &p : probes)
        probeNames.insert(p.first);
    EXPECT_EQ(tableNames, probeNames);

    const auto keyOf = [](const std::string &text) {
        ExperimentSpec spec;
        EXPECT_EQ(parseExperimentSpec(text, spec), "") << text;
        const auto points = spec.points();
        EXPECT_EQ(points.size(), 1u) << text;
        return points.empty() ? std::string()
                              : ExperimentRunner::configKey(
                                    points[0].workload, points[0].cfg);
    };
    for (const auto &[name, probe] : probes) {
        const std::string context = probe.context;
        EXPECT_NE(keyOf(context),
                  keyOf(context + name + " = " + probe.value + "\n"))
            << name << " = " << probe.value;
    }
}

TEST(ExperimentCache, KeyCarriesModelVersion)
{
    const auto key =
        ExperimentRunner::configKey(WorkloadId::DS, SimConfig::baseline());
    const std::string tag = "|m" + std::to_string(kModelVersion);
    ASSERT_GE(key.size(), tag.size());
    EXPECT_EQ(key.substr(key.size() - tag.size()), tag) << key;
}

TEST(ExperimentCache, GoldenRowsPinModelVersion)
{
    // Four tiny pinned points, one per memory-system family. Their
    // serialized cache rows (keys included) are hashed against a
    // recorded value, so any change to a simulated result, the key or
    // the row format fails here before stale rows could be recalled.
    FastEnvGuard guard;
    const std::string path = tempCachePath("golden");
    std::remove(path.c_str());

    const SimConfig ddr3 = tinyConfig(); // DDR3-1600, FR-FCFS.
    SimConfig ddr5 = tinyConfig();
    ddr5.applyDevice(dramDeviceOrDie("DDR5-4800"));
    ddr5.scheduler = SchedulerKind::Atlas;
    SimConfig hmc = tinyConfig();
    hmc.applyDevice(dramDeviceOrDie("HMC2-8GB"));
    hmc.remap.enabled = true;
    SimConfig tiered = tinyConfig();
    tiered.tier.enabled = true;
    tiered.tier.policy = TierPolicy::HotnessBased;
    {
        ExperimentRunner runner(path);
        (void)runner.runAll({{WorkloadId::WS, ddr3},
                             {WorkloadId::TPCHQ6, ddr5},
                             {WorkloadId::DS, hmc},
                             {WorkloadId::DS, tiered}},
                            1);
        ASSERT_EQ(runner.simulationsRun(), 4u);
    }
    const std::string rows = readFile(path);
    std::remove(path.c_str());

    const std::uint64_t h = fnv1a(rows);
    constexpr std::uint64_t kGoldenRowsHash = 0x7e8183a0abb38a13ull;
    EXPECT_EQ(h, kGoldenRowsHash)
        << "results changed: bump kModelVersion (src/sim/experiment.hh) "
           "and re-record kGoldenRowsHash as 0x"
        << std::hex << h << "\nrows:\n"
        << rows;
}

TEST(ExperimentCache, GoldenRowsPinTieredOverStacked)
{
    // The tiered point above has a DDR3 fast tier; this one pins a
    // tiered run whose fast tier is a remapping HMC stack, so the
    // stacked fast tier's routing, vault queues and energy are pinned
    // through the tier too.
    FastEnvGuard guard;
    const std::string path = tempCachePath("golden_tiered_hmc");
    std::remove(path.c_str());

    SimConfig cfg = stackedRemapConfig();
    cfg.remap.hotFactor = 1.05; // Swap banks within the tiny window.
    cfg.tier = tieredHotnessConfig().tier;
    cfg.tier.hotFactor = 1.05;
    {
        ExperimentRunner runner(path);
        const auto m = runner.runAll({{WorkloadId::DS, cfg}}, 1);
        ASSERT_EQ(runner.simulationsRun(), 1u);
        EXPECT_GT(m[0].remapMigrations, 0u);
        EXPECT_FALSE(m[0].perVaultReadQueue.empty());
        EXPECT_GT(m[0].fastTierHitPct, 0.0);
    }
    const std::string rows = readFile(path);
    std::remove(path.c_str());

    const std::uint64_t h = fnv1a(rows);
    constexpr std::uint64_t kGoldenRowsHash = 0x473a5a0a7d56d881ull;
    EXPECT_EQ(h, kGoldenRowsHash)
        << "results changed: bump kModelVersion (src/sim/experiment.hh) "
           "and re-record kGoldenRowsHash as 0x"
        << std::hex << h << "\nrows:\n"
        << rows;
}

TEST(ExperimentCache, GoldenRowsPinSchedulerMatrix)
{
    // The pins above cover FR-FCFS and ATLAS only. This one pins the
    // controller under every scheduler (RL drives the unified pool),
    // every other page policy under FR-FCFS, and LPDDR3-1600, the one
    // device that refreshes per bank (REFpb), so a controller change
    // that moves any of them fails here.
    FastEnvGuard guard;
    const std::string path = tempCachePath("golden_sched_matrix");
    std::remove(path.c_str());

    std::vector<ExperimentRunner::Point> points;
    for (const SchedulerKind kind : kAllSchedulers) {
        SimConfig cfg = tinyConfig();
        cfg.scheduler = kind;
        points.push_back({WorkloadId::TPCHQ6, cfg});
    }
    for (const PagePolicyKind policy : kAllPagePolicies) {
        if (policy == PagePolicyKind::OpenAdaptive)
            continue; // The FR-FCFS point above.
        SimConfig cfg = tinyConfig();
        cfg.pagePolicy = policy;
        points.push_back({WorkloadId::WS, cfg});
    }
    SimConfig lpddr3 = tinyConfig();
    lpddr3.applyDevice(dramDeviceOrDie("LPDDR3-1600"));
    points.push_back({WorkloadId::TPCHQ6, lpddr3});
    {
        ExperimentRunner runner(path);
        (void)runner.runAll(points, 1);
        ASSERT_EQ(runner.simulationsRun(), points.size());
    }
    const std::string rows = readFile(path);
    std::remove(path.c_str());

    const std::uint64_t h = fnv1a(rows);
    constexpr std::uint64_t kGoldenRowsHash = 0x18011a3f5e2aa529ull;
    EXPECT_EQ(h, kGoldenRowsHash)
        << "results changed: bump kModelVersion (src/sim/experiment.hh) "
           "and re-record kGoldenRowsHash as 0x"
        << std::hex << h << "\nrows:\n"
        << rows;
}

TEST(ExperimentWindows, UnsetFastKeepsAShortMeasureWindow)
{
    // With CLOUDMC_FAST unset the runner keeps both windows as given,
    // so the point measures the 50k cycles its "+50k" key names.
    FastEnvGuard guard;
    SimConfig cfg = tinyConfig();
    cfg.warmupCoreCycles = 10'000;
    cfg.measureCoreCycles = 50'000;
    ExperimentRunner runner("-");
    EXPECT_EQ(runner.runAll({{WorkloadId::WS, cfg}}, 1)[0].measuredCycles,
              50'000u);

    // A divisor shortens through the same rule, floor included.
    setenv("CLOUDMC_FAST", "5", 1);
    EXPECT_EQ(runner.runAll({{WorkloadId::WS, tinyConfig()}}, 1)[0]
                  .measuredCycles,
              100'000u);
    unsetenv("CLOUDMC_FAST");
}

TEST(ExperimentEnv, FastDivisorReadsAPositiveInteger)
{
    FastEnvGuard guard;
    EXPECT_EQ(ExperimentRunner::fastDivisor(), 1u); // Unset.
    setenv("CLOUDMC_FAST", "20", 1);
    EXPECT_EQ(ExperimentRunner::fastDivisor(), 20u);
    unsetenv("CLOUDMC_FAST");
}

using ExperimentEnvDeathTest = ::testing::Test;

TEST(ExperimentEnvDeathTest, MalformedOrZeroSettingsAreNamedErrors)
{
    // Each used to fall back silently: "abc" and "0" to a full-length
    // run (or the hardware thread count), "20x" to 20.
    for (const char *bad : {"abc", "20x", "0"}) {
        SCOPED_TRACE(bad);
        const std::string got =
            std::string(" must be a positive integer, got '") + bad + "'";
        EXPECT_EXIT(
            {
                setenv("CLOUDMC_FAST", bad, 1);
                (void)ExperimentRunner::fastDivisor();
            },
            ::testing::ExitedWithCode(1), "CLOUDMC_FAST" + got);
        EXPECT_EXIT(
            {
                setenv("CLOUDMC_THREADS", bad, 1);
                (void)ExperimentRunner::defaultThreads();
            },
            ::testing::ExitedWithCode(1), "CLOUDMC_THREADS" + got);
    }
}

TEST(MetricFormat, ValuesRoundTripBitExactly)
{
    for (const double x : {-0.0, 5e-324, DBL_MAX, 0.1, 1.0 / 3.0}) {
        const std::string text = formatMetric(x);
        char *end = nullptr;
        const double back = std::strtod(text.c_str(), &end);
        EXPECT_EQ(*end, '\0') << text;
        EXPECT_EQ(std::memcmp(&back, &x, sizeof(x)), 0) << text;
    }
    std::uint64_t back = 0;
    ASSERT_TRUE(parseUint(formatMetric(UINT64_MAX), back));
    EXPECT_EQ(back, UINT64_MAX);
    EXPECT_EQ(formatMetric(std::vector<double>{}), "");
    EXPECT_EQ(formatMetric(std::vector<double>{0.5}), "0.5");
    EXPECT_EQ(formatMetric(std::vector<std::uint64_t>{7}), "7");
}

TEST(MetricFormat, JsonNamesEveryFieldOnce)
{
    MetricSet m;
    m.perCoreIpc = {0.5, 0.25};
    m.perCoreCommitted = {3};
    const std::string json = metricsJson(m, 2);
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.substr(json.rfind('\n')), "\n  }");

    std::size_t fields = 0;
    forEachMetricField([&](const char *name, auto member) {
        ++fields;
        const std::string key = std::string("\"") + name + "\": ";
        const std::size_t at = json.find(key);
        ASSERT_NE(at, std::string::npos) << name;
        EXPECT_EQ(json.find(key, at + 1), std::string::npos) << name;
        using T = std::decay_t<decltype(m.*member)>;
        EXPECT_EQ(json[at + key.size()] == '[', !std::is_arithmetic_v<T>)
            << name;
    });
    std::size_t keys = 0;
    for (std::size_t at = json.find("\": "); at != std::string::npos;
         at = json.find("\": ", at + 1)) {
        ++keys;
    }
    EXPECT_EQ(keys, fields);
    EXPECT_NE(json.find("\"per_core_ipc\": [0.5,0.25]"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"per_core_committed\": [3]"), std::string::npos);
    EXPECT_NE(json.find("\"per_vault_read_queue\": []"), std::string::npos);
}
