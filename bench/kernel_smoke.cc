/**
 * @file
 * Event-kernel throughput smoke: runs the Figure 1 configuration (the
 * Table 2 baseline under FR-FCFS) for a fixed cycle budget on both
 * simulation kernels and writes the self-reported throughput to a
 * JSON file, so the bench trajectory accumulates comparable
 * simulated-Mticks/s numbers over time.
 *
 * Two numbers are reported per run:
 *  - event_kernel:     the event-scheduled kernel with idle-skip
 *  - reference_kernel: the pre-refactor tick-by-tick loop (kept in
 *    System as the golden model), i.e. the pre-refactor throughput
 *    measured on the same build, host and config
 *
 * The smoke also cross-checks that both kernels produce bit-identical
 * metrics (every metricMismatch() field), the event kernel's core
 * contract, and that fairness, stacked and tiered points recall
 * exactly from the results cache (exit 2 and 3 on failure).
 *
 * Usage: kernel_smoke [--cycles N] [--workload ACR] [--device DEV]
 *                     [--channels N]
 *                     [--json PATH] [--check-regression BASELINE]
 *        (defaults: 2M measured core cycles, WS, DDR3-1600, 1 channel,
 *        BENCH_kernel.json)
 *
 * Entries are stamped with the git SHA (bench::gitSha()) and the
 * device name, so the accumulated perf trajectory is attributable to
 * a commit and a clock-ratio configuration. A bad flag value (an
 * unknown workload or device, a channel count that is not a power of
 * two) is a named error and exits 1.
 *
 * --check-regression reads the committed BASELINE json (normally the
 * in-tree BENCH_kernel*.json stamped by the last perf-affecting PR)
 * before this run overwrites anything, and exits 4 if the measured
 * speedup_vs_reference fell more than 15% below it. The speedup is a
 * same-host kernel ratio, so the guard transfers across machines of
 * different absolute speed.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/bitutils.hh"
#include "dram/devices.hh"
#include "sim/experiment.hh"
#include "sim/spec.hh"
#include "sim/system.hh"
#include "workload/presets.hh"

using namespace mcsim;
using bench::gitSha;

namespace {

struct KernelRun
{
    double wallS = 0.0;
    double mticksPerS = 0.0;
    double coreTicksFrac = 0.0; ///< Core ticks run / eager core ticks.
    double ctlTicksFrac = 0.0;  ///< Controller ticks run / DRAM cycles.
    double batchedFrac = 0.0;   ///< Cycles run in batches / eager ticks.
    std::uint64_t batchRuns = 0; ///< runBatch() calls that advanced.
    MetricSet metrics;
    Tick endTick{};
    ClockDomains clk; ///< The grid the system actually ran.
};

KernelRun
runOnce(WorkloadId wl, const DramDevice &dev,
        std::uint64_t measureCycles, bool reference,
        std::uint32_t channels = 1)
{
    SimConfig cfg = SimConfig::baseline();
    cfg.applyDevice(dev);
    cfg.dram.channels = channels;
    cfg.warmupCoreCycles = measureCycles / 4;
    cfg.measureCoreCycles = measureCycles;
    System sys(cfg, workloadPreset(wl));
    sys.useReferenceKernel(reference);
    const auto t0 = std::chrono::steady_clock::now();
    KernelRun r;
    r.metrics = sys.run();
    r.wallS = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    r.endTick = sys.now();
    r.clk = sys.clocks();
    r.mticksPerS =
        static_cast<double>(sys.now().count()) / r.wallS / 1e6;
    const KernelStats &k = sys.kernelStats();
    const double coreCycles =
        static_cast<double>(sys.clocks().ticksToCore(sys.now()).count());
    const double dramCycles =
        static_cast<double>(sys.clocks().ticksToDram(sys.now()).count());
    r.coreTicksFrac = coreCycles > 0.0
                          ? static_cast<double>(k.coreTicksRun) /
                                (coreCycles * sys.numCores())
                          : 0.0;
    r.ctlTicksFrac =
        dramCycles > 0.0 ? static_cast<double>(k.ctlTicksRun) /
                               (dramCycles * sys.numControllers())
                         : 0.0;
    r.batchedFrac = coreCycles > 0.0
                        ? static_cast<double>(k.coreCyclesBatched) /
                              (coreCycles * sys.numCores())
                        : 0.0;
    r.batchRuns = k.coreBatchRuns;
    return r;
}

/**
 * Results-cache recall check: a fairness point (shared run plus its
 * alone baseline), a stacked point with remapping on and a tiered
 * point run against a scratch cache; a fresh runner over that cache
 * must then recall all three bit-identically without simulating.
 */
bool
cacheRoundtrips(WorkloadId wl, const DramDevice &dev,
                const std::string &cachePath)
{
    SimConfig base = SimConfig::baseline();
    base.warmupCoreCycles = 50'000;
    base.measureCoreCycles = 150'000;

    SimConfig flat = base;
    flat.applyDevice(dev);
    ExperimentRunner::Point fair(wl, flat);
    ExperimentRunner::attachAloneBaseline(fair);

    SimConfig stacked = base;
    stacked.applyDevice(dramDeviceOrDie("HMC2-8GB"));
    stacked.setVaults(4);
    stacked.remap.enabled = true;
    stacked.remap.windowAccesses = 256;

    SimConfig tiered = base;
    tiered.tier.enabled = true;
    tiered.tier.policy = TierPolicy::HotnessBased;
    tiered.tier.monitorWindowSamples = 64;

    const std::vector<ExperimentRunner::Point> points = {
        fair, {wl, stacked}, {wl, tiered}};
    std::remove(cachePath.c_str());
    std::vector<MetricSet> fresh, recalled;
    std::uint64_t rerunSims = 0;
    {
        ExperimentRunner runner(cachePath);
        fresh = runner.runAll(points, 1);
    }
    {
        ExperimentRunner runner(cachePath);
        recalled = runner.runAll(points, 1);
        rerunSims = runner.simulationsRun();
    }
    std::remove(cachePath.c_str());

    bool ok = rerunSims == 0 && fresh[0].hasFairness() &&
              fresh[1].perVaultReadQueue.size() == 4 &&
              fresh[2].fastTierHitPct > 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string diff = metricMismatch(fresh[i], recalled[i]);
        if (!diff.empty()) {
            std::fprintf(stderr, "cache round-trip of point %zu: %s\n", i,
                         diff.c_str());
            ok = false;
        }
    }
    return ok;
}

/**
 * Pull one numeric key out of a previously committed bench JSON.
 * Returns a negative value when the file or the key is missing (the
 * guard then passes trivially — a fresh tree has no baseline yet).
 */
double
baselineValue(const std::string &path, const char *name)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return -1.0;
    std::string text;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    const std::string key = std::string("\"") + name + "\":";
    const std::size_t pos = text.find(key);
    if (pos == std::string::npos)
        return -1.0;
    return std::strtod(text.c_str() + pos + key.size(), nullptr);
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t cycles = 2'000'000;
    WorkloadId wl = WorkloadId::WS;
    const DramDevice *dev = findDramDevice("DDR3-1600");
    std::string jsonPath = "BENCH_kernel.json";
    std::string regressionBaseline;
    std::uint64_t channelCount = 1;
    const bool parsed = bench::parseBenchFlags(
        argc, argv,
        {{"cycles", "a positive integer", bench::positiveUint(cycles)},
         {"workload", "a workload acronym",
          [&](const std::string &v) { return tryWorkloadFromName(v, wl); }},
         {"device", "a DRAM device name",
          [&](const std::string &v) {
              return (dev = findDramDevice(v)) != nullptr;
          }},
         {"channels", "a power-of-two channel count",
          [&](const std::string &v) {
              return parseUint(v, channelCount) &&
                     channelCount <= (1u << 31) && isPowerOf2(channelCount);
          }},
         {"json", "a path", bench::text(jsonPath)},
         {"check-regression", "a path",
          bench::text(regressionBaseline)}});
    if (!parsed)
        return 1;
    const auto channels = static_cast<std::uint32_t>(channelCount);
    const unsigned hostHw = std::thread::hardware_concurrency();
    // Read the baseline up front: --json may point at the same file
    // this run is about to overwrite.
    const double baseSpeedup =
        regressionBaseline.empty()
            ? -1.0
            : baselineValue(regressionBaseline, "speedup_vs_reference");

    const KernelRun ref = runOnce(wl, *dev, cycles, true, channels);
    const KernelRun ev = runOnce(wl, *dev, cycles, false, channels);
    const std::string mismatch = metricMismatch(ev.metrics, ref.metrics);
    const bool bitIdentical = mismatch.empty() && ev.endTick == ref.endTick;
    const double speedup =
        ref.mticksPerS > 0.0 ? ev.mticksPerS / ref.mticksPerS : 0.0;
    const bool cacheRoundtrip =
        cacheRoundtrips(wl, *dev, jsonPath + ".cache.tmp.csv");

    std::printf("kernel_smoke: fig01 config, workload %s, device %s, "
                "%u channel(s), %llu measured core cycles\n",
                workloadAcronym(wl), dev->name.c_str(), channels,
                static_cast<unsigned long long>(cycles));
    std::printf("  event kernel:     %7.2f Mticks/s (%.3f s, core ticks "
                "run %.1f%%, batched %.1f%%, ctl ticks run %.1f%%)\n",
                ev.mticksPerS, ev.wallS, 100.0 * ev.coreTicksFrac,
                100.0 * ev.batchedFrac, 100.0 * ev.ctlTicksFrac);
    std::printf("  reference kernel: %7.2f Mticks/s (%.3f s)\n",
                ref.mticksPerS, ref.wallS);
    std::printf("  speedup %.2fx, metrics bit-identical: %s%s\n", speedup,
                bitIdentical ? "yes" : "NO ", mismatch.c_str());
    std::printf("  cache recalls fairness/stacked/tiered exactly: %s\n",
                cacheRoundtrip ? "yes" : "NO");

    const ClockDomains &clk = ev.clk;
    std::FILE *f = std::fopen(jsonPath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
        return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"kernel_smoke\",\n"
        "  \"config\": \"fig01-baseline-frfcfs\",\n"
        "  \"git_sha\": \"%s\",\n"
        "  \"workload\": \"%s\",\n"
        "  \"device\": \"%s\",\n"
        "  \"channels\": %u,\n"
        "  \"clock_ratios\": \"%llu:%llu\",\n"
        "  \"measure_core_cycles\": %llu,\n"
        "  \"sim_ticks\": %llu,\n"
        "  \"host_hw_concurrency\": %u,\n"
        "  \"event_kernel\": {\n"
        "    \"mticks_per_s\": %.3f,\n"
        "    \"wall_s\": %.4f,\n"
        "    \"core_ticks_run_frac\": %.4f,\n"
        "    \"ctl_ticks_run_frac\": %.4f,\n"
        "    \"cycles_batched_frac\": %.4f,\n"
        "    \"batch_runs\": %llu\n"
        "  },\n"
        "  \"reference_kernel\": {\n"
        "    \"mticks_per_s\": %.3f,\n"
        "    \"wall_s\": %.4f\n"
        "  },\n"
        "  \"speedup_vs_reference\": %.3f,\n"
        "  \"metrics_bit_identical\": %s,\n"
        "  \"cache_roundtrip\": %s\n"
        "}\n",
        gitSha().c_str(), workloadAcronym(wl), dev->name.c_str(), channels,
        static_cast<unsigned long long>(clk.ticksPerCore.count()),
        static_cast<unsigned long long>(clk.ticksPerDram.count()),
        static_cast<unsigned long long>(cycles),
        static_cast<unsigned long long>(ev.endTick.count()), hostHw,
        ev.mticksPerS, ev.wallS, ev.coreTicksFrac, ev.ctlTicksFrac,
        ev.batchedFrac, static_cast<unsigned long long>(ev.batchRuns),
        ref.mticksPerS, ref.wallS, speedup,
        bitIdentical ? "true" : "false", cacheRoundtrip ? "true" : "false");
    std::fclose(f);
    if (!bitIdentical)
        return 2;
    if (!cacheRoundtrip)
        return 3;
    if (baseSpeedup > 0.0) {
        const double floor = 0.85 * baseSpeedup;
        std::printf("  regression guard: measured %.2fx vs baseline "
                    "%.2fx (floor %.2fx): %s\n",
                    speedup, baseSpeedup, floor,
                    speedup >= floor ? "ok" : "REGRESSION");
        if (speedup < floor)
            return 4;
    }
    return 0;
}
