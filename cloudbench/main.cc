/**
 * @file
 * cloudbench: the cloudmc benchmark program.
 *
 * Usage: cloudbench --workload NAME --seed N --seconds S --trace 0|1
 *                   --work-dir DIR [--git-sha SHA] [--src-digest HEX]
 *
 * Workloads (see README.md for why each was chosen):
 *   ws_core_bound  Web Search on the Table 2 baseline (core/cache-bound)
 *   q6_mem_bound   TPC-H Q6 on the Table 2 baseline (controller-bound)
 *   ds_tiered      Data Serving over a hotness-based tiered backend
 *   fig01_sweep    Figure 1's 12 presets x 5 schedulers, cold cache
 *
 * With --trace 0 the run is timed with no instrumentation and prints
 * the end-to-end metrics; with --trace 1 it repeats the same work with
 * DRAM command hooks and a timing referee attached, replays each layer
 * in isolation, and prints the per-layer metrics. Either way every
 * simulated output is checked, and the last stdout line is the JSON
 * result {"correct", "attempted", "failed", "metrics"}.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "cloudbench.hh"
#include "common/worker_pool.hh"
#include "dram/timing_checker.hh"
#include "mem/factory.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

using namespace mcsim;

namespace cloudbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
Report::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::printf("check FAILED: %s\n", what.c_str());
    }
}

} // namespace cloudbench

using namespace cloudbench;

namespace {

/** Nearest-rank percentile @p p in [0, 100] of @p v (empty: 0). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

/** FNV-1a over raw bytes. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }
    template <typename T>
    void
    value(const T &v)
    {
        bytes(&v, sizeof(v));
    }
    template <typename T>
    void
    list(const std::vector<T> &v)
    {
        value(v.size());
        if (!v.empty())
            bytes(v.data(), v.size() * sizeof(T));
    }
};

/** Stable 64-bit digest of every simulated field of @p m. */
std::uint64_t
digest(const MetricSet &m)
{
    Fnv f;
    for (double d :
         {m.userIpc, m.avgReadLatency, m.readLatencyP50, m.readLatencyP95,
          m.readLatencyP99, m.rowHitRatePct, m.l2Mpki, m.avgReadQueue,
          m.avgWriteQueue, m.bwUtilPct, m.sameGroupCasPct,
          m.singleAccessPct, m.ipcDisparity, m.weightedSpeedup,
          m.harmonicSpeedup, m.maxSlowdown, m.dramEnergyNj,
          m.dramAvgPowerMw, m.vaultQueueImbalance, m.fastTierHitPct,
          m.slowTierReadLatencyP99}) {
        f.value(d);
    }
    for (std::uint64_t u :
         {m.remapMigrations, m.remapMigratedRows, m.tierMigrations,
          m.tierMigratedRows, m.committedInstructions, m.measuredCycles,
          m.memReads, m.memWrites}) {
        f.value(u);
    }
    f.list(m.perCoreIpc);
    f.list(m.perCoreCommitted);
    f.list(m.perCoreCycles);
    f.list(m.perCoreSlowdown);
    f.list(m.perVaultReadQueue);
    return f.h;
}

/**
 * MetricSet invariants: committed instructions > 0, the measured
 * window equals @p window core cycles, every percentage in [0, 100],
 * every value finite. Returns an empty string when they hold, else
 * the first violation.
 */
std::string
invariantViolation(const MetricSet &m, std::uint64_t window)
{
    if (m.committedInstructions == 0)
        return "no committed instructions";
    if (m.measuredCycles != window) {
        return "measured " + std::to_string(m.measuredCycles) +
               " cycles, configured " + std::to_string(window);
    }
    const struct
    {
        const char *name;
        double v;
    } pcts[] = {{"rowHitRatePct", m.rowHitRatePct},
                {"bwUtilPct", m.bwUtilPct},
                {"sameGroupCasPct", m.sameGroupCasPct},
                {"singleAccessPct", m.singleAccessPct},
                {"fastTierHitPct", m.fastTierHitPct}};
    for (const auto &p : pcts) {
        if (!(p.v >= 0.0 && p.v <= 100.0))
            return std::string(p.name) + " outside [0, 100]";
    }
    std::vector<double> all = {
        m.userIpc, m.avgReadLatency, m.readLatencyP50, m.readLatencyP95,
        m.readLatencyP99, m.l2Mpki, m.avgReadQueue, m.avgWriteQueue,
        m.ipcDisparity, m.dramEnergyNj, m.dramAvgPowerMw,
        m.vaultQueueImbalance, m.slowTierReadLatencyP99};
    all.insert(all.end(), m.perCoreIpc.begin(), m.perCoreIpc.end());
    all.insert(all.end(), m.perVaultReadQueue.begin(),
               m.perVaultReadQueue.end());
    for (double v : all) {
        if (!std::isfinite(v) || v < 0.0)
            return "non-finite or negative value";
    }
    if (m.ipcDisparity > 1.0)
        return "ipcDisparity above 1";
    return {};
}

/**
 * The paper's Figure 2 (row-buffer hit %) and Figure 8 (single-access
 * activation %) values per workload on the Table 2 baseline, read off
 * the figures (the same targets examples/characterize.cpp prints).
 * paper_gap_pp is the mean absolute gap to these, in percentage points.
 */
struct PaperRef
{
    double rowHitPct;
    double singleAccessPct;
};

PaperRef
paperRef(WorkloadId id)
{
    switch (id) {
      case WorkloadId::DS: return {30, 88};
      case WorkloadId::MR: return {30, 88};
      case WorkloadId::SS: return {25, 90};
      case WorkloadId::WF: return {55, 77};
      case WorkloadId::WS: return {35, 85};
      case WorkloadId::MS: return {50, 76};
      case WorkloadId::WSPEC99: return {35, 80};
      case WorkloadId::TPCC1: return {30, 85};
      case WorkloadId::TPCC2: return {33, 82};
      case WorkloadId::TPCHQ2: return {28, 85};
      case WorkloadId::TPCHQ6: return {27, 86};
      case WorkloadId::TPCHQ17: return {28, 85};
    }
    return {0, 0};
}

double
paperGapPp(WorkloadId id, const MetricSet &m)
{
    const PaperRef ref = paperRef(id);
    return 0.5 * (std::fabs(m.rowHitRatePct - ref.rowHitPct) +
                  std::fabs(m.singleAccessPct - ref.singleAccessPct));
}

/** Chunks each measured window is advanced in (fixed, so the simulated
 *  work of a run depends only on its arguments). */
constexpr std::uint64_t kChunks = 32;
/** Warm-up before statistics start: at least the simulator's default,
 *  then further steps until the L2 has taken as many fills as it has
 *  lines (deterministic: it depends only on the simulated stream). */
constexpr std::uint64_t kWarmupCycles = 2'000'000;
constexpr std::uint64_t kWarmupStep = 500'000;
constexpr std::uint64_t kWarmupMax = 40'000'000;
/** Repetitions behind each setup median. */
constexpr int kSetupReps = 11;

/** Fixed sweep settings: the CLOUDMC_FAST divisor and worker count. */
constexpr std::uint64_t kSweepFast = 80;
constexpr unsigned kSweepThreads = 2;
/** Host seconds one cold sweep takes on the reference host (4-vCPU
 *  Xeon); sets how many sweeps a --seconds budget holds. */
constexpr double kSweepSecondsEach = 2.5;

struct SingleWorkload
{
    const char *name;
    WorkloadId preset;
    bool tiered;
    /** Measured core cycles per requested host second, calibrated on
     *  the reference host so a run measures about --seconds. */
    std::uint64_t cyclesPerSecond;
};

constexpr SingleWorkload kSingles[] = {
    {"ws_core_bound", WorkloadId::WS, false, 2'200'000},
    {"q6_mem_bound", WorkloadId::TPCHQ6, false, 1'400'000},
    {"ds_tiered", WorkloadId::DS, true, 2'600'000},
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    std::uint64_t seconds = 10;
    bool trace = false;
    std::string workDir = ".";
    std::string gitSha = "unknown";
    std::string srcDigest = "unknown";
};

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

void
printManifest(const Args &a)
{
    std::printf("manifest: git_sha=%s src_sha256=%s\n", a.gitSha.c_str(),
                a.srcDigest.c_str());
    std::printf("manifest: nproc=%u cpu=\"%s\"\n",
                std::thread::hardware_concurrency(), cpuModel().c_str());
    std::printf("manifest: compiler=%s build_type=%s\n", CLOUDBENCH_COMPILER,
                CLOUDBENCH_BUILD_TYPE);
    std::printf("manifest: workload=%s seed=%llu seconds=%llu trace=%d\n",
                a.workload.c_str(),
                static_cast<unsigned long long>(a.seed),
                static_cast<unsigned long long>(a.seconds), a.trace ? 1 : 0);
}

/** Peak resident set of this process image. VmHWM, unlike
 *  getrusage's ru_maxrss, does not carry the high-water mark of the
 *  parent that forked us across exec. */
double
peakRssMb()
{
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        double kb = -1.0;
        while (std::fgets(line, sizeof(line), f)) {
            if (std::strncmp(line, "VmHWM:", 6) == 0)
                kb = std::strtod(line + 6, nullptr);
        }
        std::fclose(f);
        if (kb > 0.0)
            return kb / 1024.0;
    }
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** The CPUs this process may run on, captured before any rotation. */
struct CpuSet
{
    bool ok = false;
#ifdef __linux__
    cpu_set_t initial;
#endif
    std::vector<int> cpus;
    std::size_t next = 0;
};

CpuSet &
cpuSet()
{
    static CpuSet set = [] {
        CpuSet c;
#ifdef __linux__
        CPU_ZERO(&c.initial);
        c.ok = sched_getaffinity(0, sizeof(c.initial), &c.initial) == 0;
        for (int i = 0; c.ok && i < CPU_SETSIZE; ++i) {
            if (CPU_ISSET(i, &c.initial))
                c.cpus.push_back(i);
        }
        c.ok = c.ok && !c.cpus.empty();
#endif
        return c;
    }();
    return set;
}

/**
 * Move the calling thread to the next CPU it may run on, round-robin.
 * On a shared host, interference sits on single cores for seconds at a
 * time; a thread that stays put turns that into run-to-run noise, while
 * one that visits every allowed core every few hundred milliseconds
 * samples the same mix of cores in every run.
 */
void
nextCpu()
{
    CpuSet &c = cpuSet();
    if (!c.ok)
        return;
#ifdef __linux__
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c.cpus[c.next++ % c.cpus.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
#endif
}

/** Give the calling thread back every CPU it started with, so threads
 *  it creates afterwards are not confined to one core. */
void
allCpus()
{
    CpuSet &c = cpuSet();
    if (!c.ok)
        return;
#ifdef __linux__
    sched_setaffinity(0, sizeof(c.initial), &c.initial);
#endif
}

PointSpec
singleSpec(const SingleWorkload &w, const Args &a)
{
    PointSpec s;
    s.workload = w.preset;
    s.cfg = SimConfig::baseline();
    s.cfg.seed = a.seed;
    s.cfg.kernelThreads = 1;
    if (w.tiered) {
        s.cfg.tier.enabled = true;
        s.cfg.tier.policy = TierPolicy::HotnessBased;
    }
    s.cfg.warmupCoreCycles = kWarmupCycles;
    const std::uint64_t unit = kChunks * 1000;
    s.cfg.measureCoreCycles =
        std::max<std::uint64_t>(1, w.cyclesPerSecond * a.seconds / unit) *
        unit;
    // SimConfig::seed is part of the point's key; the generator's own
    // streams are seeded from WorkloadParams::seed.
    s.params = workloadPreset(w.preset);
    s.params.seed = a.seed;
    return s;
}

/** Median host seconds of constructing (and destroying) @p spec's
 *  System — the single points' time to their first simulated cycle. */
double
setupSeconds(const PointSpec &spec)
{
    std::vector<double> s;
    for (int i = 0; i < kSetupReps; ++i) {
        nextCpu();
        const auto t0 = Clock::now();
        auto sys = std::make_unique<System>(spec.cfg, spec.params);
        s.push_back(secondsSince(t0));
    }
    return median(s);
}

KernelStats
kernelDelta(const KernelStats &a, const KernelStats &b)
{
    KernelStats d;
    d.coreStepsRun = b.coreStepsRun - a.coreStepsRun;
    d.coreTicksRun = b.coreTicksRun - a.coreTicksRun;
    d.memStepsRun = b.memStepsRun - a.memStepsRun;
    d.ctlTicksRun = b.ctlTicksRun - a.ctlTicksRun;
    d.coreBatchRuns = b.coreBatchRuns - a.coreBatchRuns;
    d.coreCyclesBatched = b.coreCyclesBatched - a.coreCyclesBatched;
    return d;
}

/** One warm-up + chunked measured window on @p sys. */
struct WindowRun
{
    MetricSet metrics;
    std::uint64_t warmupCycles = 0;
    std::uint64_t l2Fills = 0; ///< L2 misses (line fills) in warm-up.
    bool l2Filled = false;
    KernelStats kernel;   ///< Window-only kernel counters.
    double warmupS = 0.0; ///< Host seconds of the warm-up.
    double windowS = 0.0; ///< Host seconds of the measured window.
    std::vector<double> chunkS;
};

/**
 * Warm @p sys up in steps until at least cfg.warmupCoreCycles have run
 * and the L2 has taken as many fills as it has lines, then advance the
 * measured window in kChunks chunks, moving to the next CPU before each
 * step; @p measuring, when given, is set as the window starts. Chunked
 * advance() is bit-identical to run().
 */
WindowRun
runWindow(System &sys, const SimConfig &cfg, bool *measuring = nullptr)
{
    WindowRun r;
    const std::uint64_t l2Lines =
        cfg.hierarchy.l2.sizeBytes / cfg.hierarchy.l2.blockBytes;
    const auto w0 = Clock::now();
    while ((r.warmupCycles < cfg.warmupCoreCycles ||
            sys.hierarchy().l2().stats().misses < l2Lines) &&
           r.warmupCycles < kWarmupMax) {
        nextCpu();
        sys.advance(kWarmupStep);
        r.warmupCycles += kWarmupStep;
    }
    r.warmupS = secondsSince(w0);
    r.l2Fills = sys.hierarchy().l2().stats().misses;
    r.l2Filled = r.l2Fills >= l2Lines;
    sys.resetStats();
    if (measuring)
        *measuring = true;
    const KernelStats k0 = sys.kernelStats();
    const std::uint64_t chunk = cfg.measureCoreCycles / kChunks;
    for (std::uint64_t c = 0; c < kChunks; ++c) {
        nextCpu();
        const auto t0 = Clock::now();
        sys.advance(chunk);
        r.chunkS.push_back(secondsSince(t0));
    }
    for (double t : r.chunkS)
        r.windowS += t;
    r.kernel = kernelDelta(k0, sys.kernelStats());
    r.metrics = sys.collect();
    return r;
}

void
printDigest(const std::string &what, const MetricSet &m)
{
    std::printf("digest: %s %016llx\n", what.c_str(),
                static_cast<unsigned long long>(digest(m)));
}

void
checkWarmup(const std::string &what, const WindowRun &r, Report &rep)
{
    std::printf("warmup: %s %llu core cycles, %llu L2 fills\n", what.c_str(),
                static_cast<unsigned long long>(r.warmupCycles),
                static_cast<unsigned long long>(r.l2Fills));
    rep.check(r.l2Filled, what + ": L2 not filled before statistics");
}

// ---------------------------------------------------------------- timed

void
timedSingle(const SingleWorkload &w, const Args &a, Report &rep)
{
    const PointSpec spec = singleSpec(w, a);
    std::printf("point: %s\n",
                ExperimentRunner::configKey(spec.workload, spec.cfg).c_str());
    const double setupS = setupSeconds(spec);

    System sys(spec.cfg, spec.params);
    const WindowRun r = runWindow(sys, spec.cfg);
    checkWarmup(w.name, r, rep);

    const std::string bad =
        invariantViolation(r.metrics, spec.cfg.measureCoreCycles);
    rep.check(bad.empty(), std::string(w.name) + ": " + bad);
    printDigest(w.name, r.metrics);
    std::printf("fidelity: row_hit %.2f%% single_access %.2f%% l2_mpki %.3f "
                "bw_util %.2f%% ipc %.4f\n",
                r.metrics.rowHitRatePct, r.metrics.singleAccessPct,
                r.metrics.l2Mpki, r.metrics.bwUtilPct, r.metrics.userIpc);
    std::printf("window: %llu core cycles in %.3f s (%zu chunks, median "
                "%.4f s)\n",
                static_cast<unsigned long long>(spec.cfg.measureCoreCycles),
                r.windowS, r.chunkS.size(), median(r.chunkS));

    const double ticks = static_cast<double>(
        spec.cfg.clocks.coreToTicks(spec.cfg.measureCoreCycles).count());
    rep.add("setup_s", setupS, "s");
    rep.add("mticks_per_s", ticks / r.windowS / 1e6, "Mticks/s");
    rep.add("minstr_per_s",
            static_cast<double>(r.metrics.committedInstructions) / r.windowS /
                1e6,
            "Minstr/s");
    rep.add("sweep_s", r.warmupS + r.windowS, "s");
    rep.add("peak_rss_mb", peakRssMb(), "MB");
    rep.add("paper_gap_pp", paperGapPp(spec.workload, r.metrics), "pp");
}

/** Figure 1's point list: 12 presets x the paper's 5 schedulers. The
 *  seed enters each point's key (SimConfig::seed) and the RL
 *  scheduler's exploration stream; the presets keep their calibrated
 *  generator seeds, as ExperimentRunner runs them. */
std::vector<ExperimentRunner::Point>
sweepPoints(std::uint64_t seed)
{
    std::vector<ExperimentRunner::Point> points;
    for (auto sched : kPaperSchedulers) {
        for (auto wl : kAllWorkloads) {
            SimConfig cfg = SimConfig::baseline();
            cfg.scheduler = sched;
            cfg.seed = seed;
            cfg.schedulerParams.rl.seed = seed;
            points.emplace_back(wl, cfg);
        }
    }
    return points;
}

/** The point as ExperimentRunner simulates it under kSweepFast. */
SimConfig
effectiveConfig(const SimConfig &cfg)
{
    SimConfig e = cfg;
    e.warmupCoreCycles = cfg.warmupCoreCycles / kSweepFast;
    e.measureCoreCycles =
        std::max<std::uint64_t>(cfg.measureCoreCycles / kSweepFast, 100'000);
    return e;
}

/** Check every sweep result; returns the sweep's paper gap over its
 *  FR-FCFS column. */
double
checkSweep(const std::vector<ExperimentRunner::Point> &points,
           const std::vector<MetricSet> &res, Report &rep)
{
    double gap = 0.0;
    int gapN = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SimConfig e = effectiveConfig(points[i].cfg);
        const std::string bad =
            invariantViolation(res[i], e.measureCoreCycles);
        rep.check(bad.empty(), "sweep point " + std::to_string(i) + ": " +
                                   bad);
        if (points[i].cfg.scheduler == SchedulerKind::FrFcfs) {
            gap += paperGapPp(points[i].workload, res[i]);
            ++gapN;
        }
    }
    return gapN ? gap / gapN : 0.0;
}

std::uint64_t
sweepDigest(const std::vector<MetricSet> &res)
{
    std::uint64_t h = 0;
    for (const auto &m : res)
        h = h * 0x100000001b3ull ^ digest(m);
    return h;
}

void
timedSweep(const Args &a, Report &rep)
{
    const std::string cache = a.workDir + "/sweep_cache.csv";
    const int reps = static_cast<int>(std::max<double>(
        1.0, std::round(static_cast<double>(a.seconds) / kSweepSecondsEach)));

    // Setup: runner over a cold cache, the point list, and the first
    // point's System — everything before the first simulated cycle.
    std::vector<double> setupS;
    for (int i = 0; i < kSetupReps; ++i) {
        std::remove(cache.c_str());
        nextCpu();
        const auto t0 = Clock::now();
        ExperimentRunner runner(cache);
        const auto points = sweepPoints(a.seed);
        System first(effectiveConfig(points.front().cfg),
                     workloadPreset(points.front().workload));
        setupS.push_back(secondsSince(t0));
    }

    allCpus();
    const auto points = sweepPoints(a.seed);
    for (const auto &p : points)
        std::printf("point: %s\n",
                    ExperimentRunner::configKey(p.workload, p.cfg).c_str());

    std::vector<double> sweepS;
    std::vector<MetricSet> first;
    for (int r = 0; r < reps; ++r) {
        std::remove(cache.c_str());
        ExperimentRunner runner(cache);
        const auto t0 = Clock::now();
        const auto res = runner.runAll(points, kSweepThreads);
        sweepS.push_back(secondsSince(t0));
        rep.check(runner.simulationsRun() == points.size() &&
                      runner.cacheHits() == 0,
                  "cold sweep did not simulate every point once");
        if (r == 0) {
            first = res;
        } else {
            rep.check(sweepDigest(res) == sweepDigest(first),
                      "cold sweeps disagree");
        }
        // Warm rerun on the same runner: identical results, 0 simulated.
        const auto again = runner.runAll(points, kSweepThreads);
        rep.check(runner.simulationsRun() == points.size() &&
                      sweepDigest(again) == sweepDigest(res),
                  "warm rerun simulated or changed a point");
    }
    std::remove(cache.c_str());
    const double gap = checkSweep(points, first, rep);
    std::printf("digest: fig01_sweep %016llx\n",
                static_cast<unsigned long long>(sweepDigest(first)));

    double ticks = 0.0, instr = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SimConfig e = effectiveConfig(points[i].cfg);
        ticks += static_cast<double>(
            e.clocks.coreToTicks(e.warmupCoreCycles + e.measureCoreCycles)
                .count());
        instr += static_cast<double>(first[i].committedInstructions);
    }
    // The fastest cold sweep, as for the single points' chunks.
    const double sweep = *std::min_element(sweepS.begin(), sweepS.end());
    std::printf("sweep: %d cold sweeps of %zu points, fastest %.3f s, "
                "median %.3f s\n",
                reps, points.size(), sweep, median(sweepS));

    rep.add("setup_s", median(setupS), "s");
    rep.add("mticks_per_s", ticks / sweep / 1e6, "Mticks/s");
    rep.add("minstr_per_s", instr / sweep / 1e6, "Minstr/s");
    rep.add("sweep_s", sweep, "s");
    rep.add("peak_rss_mb", peakRssMb(), "MB");
    rep.add("paper_gap_pp", gap, "pp");
}

// --------------------------------------------------------------- traced

/** Per-queue DRAM command counters plus a TimingChecker built from the
 *  queue's own channel parameters. */
struct Referee
{
    explicit Referee(const Channel &ch)
        : checker(ch.geometry(), ch.timings(), ch.clocks())
    {
    }

    TimingChecker checker;
    std::uint64_t counts[5] = {};
    std::uint64_t violations = 0;
    std::string firstViolation;
};

/**
 * One Referee on every queue of a System, attached through
 * Channel::setCommandHook. Counting starts when @p counting becomes
 * true; the referee checks every command. The hooks are detached again
 * on destruction, so declare the set after the System it watches.
 */
class RefereeSet
{
  public:
    RefereeSet(System &sys, const bool &counting) : sys_(sys)
    {
        for (std::uint32_t q = 0; q < sys.numControllers(); ++q) {
            Channel &ch = sys.controller(q).channel();
            refs.push_back(std::make_unique<Referee>(ch));
            Referee *r = refs.back().get();
            ch.setCommandHook([r, &counting](const DramCommand &cmd,
                                             Tick at) {
                if (counting)
                    ++r->counts[static_cast<unsigned>(cmd.type)];
                const std::string err = r->checker.check(cmd, at);
                if (!err.empty() && r->violations++ == 0)
                    r->firstViolation = err;
            });
        }
    }

    ~RefereeSet()
    {
        for (std::uint32_t q = 0; q < sys_.numControllers(); ++q)
            sys_.controller(q).channel().setCommandHook(nullptr);
    }

    RefereeSet(const RefereeSet &) = delete;
    RefereeSet &operator=(const RefereeSet &) = delete;

    std::vector<std::unique_ptr<Referee>> refs;

  private:
    System &sys_;
};

std::uint64_t
refereeViolations(const RefereeSet &set, const std::string &what,
                  Report &rep)
{
    const auto &refs = set.refs;
    std::uint64_t total = 0;
    for (std::size_t q = 0; q < refs.size(); ++q) {
        total += refs[q]->violations;
        std::printf("referee: %s queue %zu: %llu commands, %llu "
                    "violations\n",
                    what.c_str(), q,
                    static_cast<unsigned long long>(
                        refs[q]->checker.accepted()),
                    static_cast<unsigned long long>(refs[q]->violations));
        rep.check(refs[q]->violations == 0,
                  what + " queue " + std::to_string(q) +
                      " timing violation: " + refs[q]->firstViolation);
    }
    return total;
}

/** Event kernel vs the tick-by-tick reference on a short window:
 *  metrics must be bit-identical; returns reference / event time. */
double
referenceSpeedup(const SimConfig &base, const WorkloadParams &params,
                 Report &rep)
{
    SimConfig cfg = base;
    cfg.warmupCoreCycles = 20'000;
    cfg.measureCoreCycles = 80'000;
    double s[2] = {};
    MetricSet m[2];
    for (int ref = 0; ref < 2; ++ref) {
        System sys(cfg, params);
        sys.useReferenceKernel(ref == 1);
        const auto t0 = Clock::now();
        m[ref] = sys.run();
        s[ref] = secondsSince(t0);
    }
    rep.check(digest(m[0]) == digest(m[1]),
              "event and reference kernels disagree");
    return s[1] / s[0];
}

/** Per-layer metrics a workload does not exercise are reported as 0. */
void
addZeros(Report &rep,
         const std::vector<std::pair<const char *, const char *>> &names)
{
    for (const auto &n : names)
        rep.add(n.first, 0.0, n.second);
}

/** dram.act/rd/wr/pre/ref and CAS per activation from per-type
 *  command counts (indexed by DramCommandType). */
void
addDramCounts(Report &rep, const std::uint64_t *counts)
{
    const auto cnt = [&](DramCommandType t) {
        return static_cast<double>(counts[static_cast<unsigned>(t)]);
    };
    const double acts = cnt(DramCommandType::Activate);
    rep.add("dram.act", acts, "count");
    rep.add("dram.rd", cnt(DramCommandType::Read), "count");
    rep.add("dram.wr", cnt(DramCommandType::Write), "count");
    rep.add("dram.pre", cnt(DramCommandType::Precharge), "count");
    rep.add("dram.ref", cnt(DramCommandType::Refresh), "count");
    rep.add("dram.cas_per_act",
            acts > 0 ? (cnt(DramCommandType::Read) +
                        cnt(DramCommandType::Write)) /
                           acts
                     : 0.0,
            "ratio");
}

void
tracedSingle(const SingleWorkload &w, const Args &a, Report &rep)
{
    const PointSpec spec = singleSpec(w, a);
    const SimConfig &cfg = spec.cfg;
    std::printf("point: %s\n",
                ExperimentRunner::configKey(spec.workload, cfg).c_str());

    // Setup layers: the generator (Zipf tables) and the whole System.
    const std::uint64_t capacity =
        makeMemBackend(cfg, spec.params.cores)->capacityBytes();
    std::vector<double> genMs;
    for (int i = 0; i < kSetupReps; ++i) {
        nextCpu();
        const auto t0 = Clock::now();
        SyntheticWorkload gen(spec.params, capacity);
        genMs.push_back(secondsSince(t0) * 1e3);
    }
    rep.add("sim.setup_ms", setupSeconds(spec) * 1e3, "ms");
    rep.add("workload.setup_ms", median(genMs), "ms");

    // The untraced full run: kernel counters and the window's host time.
    FullRun full;
    std::vector<double> chunkMs;
    {
        System sys(cfg, spec.params);
        const WindowRun r = runWindow(sys, cfg);
        checkWarmup(w.name, r, rep);
        full.metrics = r.metrics;
        full.windowHostS = r.windowS;
        full.kernel = r.kernel;
        for (double s : r.chunkS)
            chunkMs.push_back(s * 1e3);
        std::uint64_t l1dAcc = 0, l1dMiss = 0, l1iAcc = 0;
        for (std::uint32_t c = 0; c < sys.numCores(); ++c) {
            l1dAcc += sys.hierarchy().l1d(c).stats().accesses;
            l1dMiss += sys.hierarchy().l1d(c).stats().misses;
            l1iAcc += sys.hierarchy().l1i(c).stats().accesses;
        }
        full.l1Accesses = l1dAcc + l1iAcc;
        rep.add("cpu.l1d_miss_pct",
                l1dAcc ? 100.0 * static_cast<double>(l1dMiss) /
                             static_cast<double>(l1dAcc)
                       : 0.0,
                "%");
        const double coreCycles =
            static_cast<double>(cfg.measureCoreCycles) * sys.numCores();
        const double dramCycles =
            static_cast<double>(
                cfg.clocks.ticksToDram(
                          cfg.clocks.coreToTicks(cfg.measureCoreCycles))
                    .count()) *
            sys.numControllers();
        rep.add("cpu.batched_frac",
                static_cast<double>(r.kernel.coreCyclesBatched) / coreCycles,
                "frac");
        rep.add("cpu.core_ticks_frac",
                static_cast<double>(r.kernel.coreTicksRun) / coreCycles,
                "frac");
        rep.add("cpu.batch_runs", static_cast<double>(r.kernel.coreBatchRuns),
                "count");
        rep.add("sim.ctl_ticks_frac",
                static_cast<double>(r.kernel.ctlTicksRun) / dramCycles,
                "frac");
        rep.add("sim.core_steps", static_cast<double>(r.kernel.coreStepsRun),
                "count");
        rep.add("sim.mem_steps", static_cast<double>(r.kernel.memStepsRun),
                "count");
    }
    const std::string bad =
        invariantViolation(full.metrics, cfg.measureCoreCycles);
    rep.check(bad.empty(), std::string(w.name) + ": " + bad);
    printDigest(w.name, full.metrics);

    // The traced run: the same window with command hooks and referees.
    bool counting = false;
    double tracedS = 0.0;
    MetricSet traced;
    std::uint64_t counts[5] = {};
    std::uint64_t violations = 0;
    {
        System sys(cfg, spec.params);
        const RefereeSet refs(sys, counting);
        const WindowRun r = runWindow(sys, cfg, &counting);
        tracedS = r.windowS;
        traced = r.metrics;
        violations = refereeViolations(refs, w.name, rep);
        for (const auto &r : refs.refs) {
            for (int t = 0; t < 5; ++t)
                counts[t] += r->counts[t];
        }
    }
    rep.check(digest(traced) == digest(full.metrics),
              "command hooks changed the simulated metrics");

    const MetricSet &m = full.metrics;
    rep.add("cpu.l2_mpki", m.l2Mpki, "MPKI");
    rep.add("mem.read_q_avg", m.avgReadQueue, "entries");
    rep.add("mem.write_q_avg", m.avgWriteQueue, "entries");
    rep.add("mem.read_lat_p50", m.readLatencyP50, "cycles");
    rep.add("mem.read_lat_p99", m.readLatencyP99, "cycles");
    rep.add("mem.row_hit_pct", m.rowHitRatePct, "%");
    rep.add("mem.single_access_pct", m.singleAccessPct, "%");
    rep.add("mem.bw_util_pct", m.bwUtilPct, "%");
    rep.add("mem.fast_tier_hit_pct", m.fastTierHitPct, "%");
    rep.add("mem.tier_migrations", static_cast<double>(m.tierMigrations),
            "count");
    rep.add("mem.slow_read_lat_p99", m.slowTierReadLatencyP99, "cycles");

    addDramCounts(rep, counts);
    rep.add("dram.energy_uj", m.dramEnergyNj / 1e3, "uJ");
    rep.add("dram.timing_violations", static_cast<double>(violations),
            "count");

    rep.add("sim.advance_ms_p50", median(chunkMs), "ms");
    rep.add("sim.advance_ms_p95", percentile(chunkMs, 95), "ms");
    rep.add("sim.advance_n", static_cast<double>(chunkMs.size()), "count");
    rep.add("sim.ref_speedup", referenceSpeedup(cfg, spec.params, rep),
            "ratio");

    replayLayers(spec, full, rep);
    addZeros(rep, {{"runner.sims_run", "count"},
                   {"runner.cache_hits", "count"},
                   {"runner.cache_load_ms", "ms"},
                   {"runner.recall_ms", "ms"}});
    rep.add("trace.overhead_pct",
            100.0 * (tracedS - full.windowHostS) / full.windowHostS, "%");
}

void
tracedSweep(const Args &a, Report &rep)
{
    const std::string cache = a.workDir + "/sweep_cache.csv";
    std::remove(cache.c_str());
    const auto points = sweepPoints(a.seed);
    for (const auto &p : points)
        std::printf("point: %s\n",
                    ExperimentRunner::configKey(p.workload, p.cfg).c_str());

    // Per-point setup layers across the sweep's 60 configurations.
    std::vector<double> sysMs, genMs;
    for (const auto &p : points) {
        const SimConfig e = effectiveConfig(p.cfg);
        const WorkloadParams params = workloadPreset(p.workload);
        nextCpu();
        const auto t0 = Clock::now();
        auto sys = std::make_unique<System>(e, params);
        sysMs.push_back(secondsSince(t0) * 1e3);
        if (p.cfg.scheduler == SchedulerKind::FrFcfs) {
            const std::uint64_t cap =
                makeMemBackend(e, params.cores)->capacityBytes();
            const auto g0 = Clock::now();
            SyntheticWorkload gen(params, cap);
            genMs.push_back(secondsSince(g0) * 1e3);
        }
    }
    rep.add("sim.setup_ms", median(sysMs), "ms");
    rep.add("workload.setup_ms", median(genMs), "ms");
    allCpus();

    // Cold sweep through the runner, then a fresh runner over the
    // filled cache must recall every point without simulating.
    std::vector<MetricSet> fresh;
    double coldS = 0.0;
    {
        ExperimentRunner runner(cache);
        const auto t0 = Clock::now();
        fresh = runner.runAll(points, kSweepThreads);
        coldS = secondsSince(t0);
        rep.add("runner.sims_run",
                static_cast<double>(runner.simulationsRun()), "count");
    }
    const double gap = checkSweep(points, fresh, rep);
    std::printf("digest: fig01_sweep %016llx (paper_gap_pp %.4f)\n",
                static_cast<unsigned long long>(sweepDigest(fresh)), gap);

    std::vector<double> loadMs;
    for (int i = 0; i < 3; ++i) {
        const auto t0 = Clock::now();
        ExperimentRunner runner(cache);
        loadMs.push_back(secondsSince(t0) * 1e3);
    }
    {
        ExperimentRunner runner(cache);
        const auto t0 = Clock::now();
        const auto recalled = runner.runAll(points, kSweepThreads);
        rep.add("runner.recall_ms", secondsSince(t0) * 1e3, "ms");
        rep.add("runner.cache_hits",
                static_cast<double>(runner.cacheHits()), "count");
        rep.check(runner.simulationsRun() == 0,
                  "warm runner simulated points");
        // The CSV keeps ~6 significant digits; compare relatively.
        bool same = recalled.size() == fresh.size();
        for (std::size_t i = 0; same && i < fresh.size(); ++i) {
            const auto close = [](double x, double y) {
                return std::fabs(x - y) <= 1e-5 * (std::fabs(y) + 1.0);
            };
            same = close(recalled[i].userIpc, fresh[i].userIpc) &&
                   close(recalled[i].rowHitRatePct, fresh[i].rowHitRatePct) &&
                   close(recalled[i].singleAccessPct,
                         fresh[i].singleAccessPct) &&
                   recalled[i].committedInstructions ==
                       fresh[i].committedInstructions;
        }
        rep.check(same, "recalled sweep differs from the simulated one");
    }
    rep.add("runner.cache_load_ms", median(loadMs), "ms");
    std::remove(cache.c_str());

    // Traced: every point re-simulated directly with referees on every
    // queue, split over the worker pool; results must match the runner.
    std::vector<MetricSet> hooked(points.size());
    std::vector<std::array<std::uint64_t, 5>> counts(points.size());
    std::vector<std::uint64_t> viol(points.size());
    std::vector<std::string> firstErr(points.size());
    const auto t0 = Clock::now();
    {
        WorkerPool pool(kSweepThreads - 1);
        pool.run(kSweepThreads, [&](unsigned part) {
            for (std::size_t i = part; i < points.size();
                 i += kSweepThreads) {
                const SimConfig e = effectiveConfig(points[i].cfg);
                System sys(e, workloadPreset(points[i].workload));
                const bool counting = true;
                const RefereeSet rs(sys, counting);
                hooked[i] = sys.run();
                counts[i] = {};
                for (const auto &r : rs.refs) {
                    viol[i] += r->violations;
                    if (firstErr[i].empty())
                        firstErr[i] = r->firstViolation;
                    for (int t = 0; t < 5; ++t)
                        counts[i][t] += r->counts[t];
                }
            }
        });
    }
    const double tracedS = secondsSince(t0);
    std::uint64_t violations = 0;
    std::array<std::uint64_t, 5> total = {};
    for (std::size_t i = 0; i < points.size(); ++i) {
        violations += viol[i];
        for (int t = 0; t < 5; ++t)
            total[t] += counts[i][t];
        rep.check(viol[i] == 0, "sweep point " + std::to_string(i) +
                                    " timing violation: " + firstErr[i]);
        rep.check(digest(hooked[i]) == digest(fresh[i]),
                  "sweep point " + std::to_string(i) +
                      " differs under command hooks");
    }
    std::printf("referee: fig01_sweep %zu points, %llu violations\n",
                points.size(), static_cast<unsigned long long>(violations));
    addDramCounts(rep, total.data());
    rep.add("dram.timing_violations", static_cast<double>(violations),
            "count");
    rep.add("sim.ref_speedup",
            referenceSpeedup(points.front().cfg,
                             workloadPreset(points.front().workload), rep),
            "ratio");
    rep.add("trace.overhead_pct", 100.0 * (tracedS - coldS) / coldS, "%");

    // Layers the sweep does not isolate (see README.md).
    addZeros(rep, {{"workload.ns_per_op", "ns"},
                   {"workload.share_pct", "%"},
                   {"cpu.batched_frac", "frac"},
                   {"cpu.core_ticks_frac", "frac"},
                   {"cpu.batch_runs", "count"},
                   {"cpu.hier_ns_per_access", "ns"},
                   {"cpu.hier_share_pct", "%"},
                   {"cpu.l2_mpki", "MPKI"},
                   {"cpu.l1d_miss_pct", "%"},
                   {"sim.ctl_ticks_frac", "frac"},
                   {"sim.core_steps", "count"},
                   {"sim.mem_steps", "count"},
                   {"mem.ctl_ns_per_tick", "ns"},
                   {"mem.ctl_ns_per_enqueue", "ns"},
                   {"mem.ctl_share_pct", "%"},
                   {"mem.route_ns", "ns"},
                   {"mem.route_share_pct", "%"},
                   {"mem.fast_tier_hit_pct", "%"},
                   {"mem.tier_migrations", "count"},
                   {"mem.slow_read_lat_p99", "cycles"},
                   {"mem.read_q_avg", "entries"},
                   {"mem.write_q_avg", "entries"},
                   {"mem.read_lat_p50", "cycles"},
                   {"mem.read_lat_p99", "cycles"},
                   {"mem.row_hit_pct", "%"},
                   {"mem.single_access_pct", "%"},
                   {"mem.bw_util_pct", "%"},
                   {"dram.energy_uj", "uJ"},
                   {"sim.advance_ms_p50", "ms"},
                   {"sim.advance_ms_p95", "ms"},
                   {"sim.advance_n", "count"}});
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--work-dir")
            a.workDir = v;
        else if (k == "--git-sha")
            a.gitSha = v;
        else if (k == "--src-digest")
            a.srcDigest = v;
        else
            return false;
    }
    return (argc % 2) == 1 && !a.workload.empty() && a.seconds >= 1;
}

void
printJson(const Report &rep)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                rep.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: cloudbench --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--work-dir DIR] [--git-sha SHA] "
                     "[--src-digest HEX]\n");
        return 2;
    }
    setenv("CLOUDMC_FAST", std::to_string(kSweepFast).c_str(), 1);
    cpuSet();
    printManifest(a);

    Report rep;
    if (a.workload == "fig01_sweep") {
        if (a.trace)
            tracedSweep(a, rep);
        else
            timedSweep(a, rep);
    } else {
        const SingleWorkload *w = nullptr;
        for (const auto &s : kSingles) {
            if (a.workload == s.name)
                w = &s;
        }
        if (!w) {
            std::fprintf(stderr, "unknown workload '%s'\n",
                         a.workload.c_str());
            return 2;
        }
        if (a.trace)
            tracedSingle(*w, a, rep);
        else
            timedSingle(*w, a, rep);
    }
    std::printf("failed_pct: %.4f (%llu of %llu checks)\n",
                rep.attempted ? 100.0 * static_cast<double>(rep.failed) /
                                    static_cast<double>(rep.attempted)
                              : 0.0,
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));
    std::fflush(stdout);
    printJson(rep);
    return 0;
}
