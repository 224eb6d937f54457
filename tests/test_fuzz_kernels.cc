/**
 * @file
 * Randomized differential validation of the two simulation kernels:
 * 64 seeded random configurations — device (including the bank-group
 * DDR4/DDR5 grades, per-bank-refresh LPDDR3, and the stacked HMC2
 * part) x scheduler x page policy x mapping x bank-group mapping x
 * channel count x workload x refresh on/off — each run on the
 * event-scheduled kernel AND the tick-by-tick reference loop,
 * asserting bit-identical metrics and exact per-channel command-trace
 * equality. A quarter of the indices force the stacked backend
 * (vault counts {4, 8, 16}, dynamic remapping on/off) so vault
 * routing, TSV timing and the migration cost model are always in the
 * differential sample.
 *
 * A failing configuration is printed as a reproducible spec string:
 * paste it into a file and run `example_run_experiment --config` (or
 * re-run this suite with CLOUDMC_FUZZ_SEED) to replay the exact point.
 * CI pins CLOUDMC_FUZZ_SEED so the covered sample is stable per run
 * while the seed knob still lets a soak loop walk fresh samples.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "dram/devices.hh"
#include "mem/factory.hh"
#include "sim/options.hh"
#include "sim/spec.hh"
#include "sim/system.hh"
#include "workload/presets.hh"

using namespace mcsim;

namespace {

/** Base seed: CLOUDMC_FUZZ_SEED when set (CI pins it), else 1. */
std::uint64_t
fuzzBaseSeed()
{
    if (const char *env = std::getenv("CLOUDMC_FUZZ_SEED")) {
        const auto v = std::strtoull(env, nullptr, 10);
        if (v >= 1)
            return v;
    }
    return 1;
}

struct FuzzConfig
{
    SimConfig cfg;
    WorkloadId workload = WorkloadId::DS;
    bool refresh = true;

    /** The configuration as a runnable `--config` spec string. */
    std::string
    specString() const
    {
        std::ostringstream out;
        out << "device = " << cfg.deviceName << '\n'
            << "scheduler = " << schedulerKindName(cfg.scheduler) << '\n'
            << "policy = " << pagePolicyKindName(cfg.pagePolicy) << '\n'
            << "mapping = " << mappingSchemeName(cfg.mapping) << '\n'
            << "group_mapping = "
            << bankGroupMappingName(cfg.bankGroupMapping) << '\n'
            << "channels = " << cfg.dram.channels << '\n'
            << "workload = " << workloadAcronym(workload) << '\n'
            << "refresh = " << (refresh ? "on" : "off") << '\n';
        if (cfg.dram.vaultsPerStack > 0) {
            out << "backend = stacked\n"
                << "vaults = " << cfg.dram.vaultsPerStack << '\n'
                << "remap = " << (cfg.remap.enabled ? "on" : "off")
                << '\n';
        }
        if (cfg.tier.enabled) {
            out << "tier = on\n"
                << "tier_policy = " << tierPolicyName(cfg.tier.policy)
                << '\n'
                << "tier_capacity_pct = " << cfg.tier.fastCapacityPct
                << '\n'
                << "monitor_sample = " << cfg.tier.monitorSampleEvery
                << '\n'
                << "monitor_window = " << cfg.tier.monitorWindowSamples
                << '\n';
        }
        out << "warmup = " << cfg.warmupCoreCycles << '\n'
            << "measure = " << cfg.measureCoreCycles << '\n';
        return out.str();
    }
};

/** Derive one random configuration from the (base seed, index) pair. */
FuzzConfig
drawConfig(std::uint64_t index)
{
    Pcg32 rng(fuzzBaseSeed() * 1'000'003 + index, 0x22);
    FuzzConfig f;
    f.cfg = SimConfig::baseline();

    const auto &registry = dramDeviceRegistry();
    f.cfg.applyDevice(
        registry[rng.below(static_cast<std::uint32_t>(registry.size()))]);
    f.cfg.scheduler = kAllSchedulers[rng.below(
        static_cast<std::uint32_t>(kAllSchedulers.size()))];
    f.cfg.pagePolicy = kAllPagePolicies[rng.below(
        static_cast<std::uint32_t>(kAllPagePolicies.size()))];
    f.cfg.mapping = kExtendedMappingSchemes[rng.below(
        static_cast<std::uint32_t>(kExtendedMappingSchemes.size()))];
    f.cfg.bankGroupMapping = kAllBankGroupMappings[rng.below(2)];
    f.cfg.dram.channels = 1u << rng.below(3); // 1, 2 or 4.
    f.workload = kAllWorkloads[rng.below(
        static_cast<std::uint32_t>(kAllWorkloads.size()))];
    f.refresh = rng.below(2) == 0;
    f.cfg.refreshEnabled = f.refresh;
    // Stacked-backend sampling: a quarter of the indices force the
    // stacked reference part, so vault-geometry and remapping coverage
    // never depends on the registry draw above happening to pick it.
    if (rng.below(4) == 0)
        f.cfg.applyDevice(*findDramDevice("HMC2-8GB"));
    if (f.cfg.dram.vaultsPerStack > 0) {
        const std::uint32_t vaultChoices[] = {4, 8, 16};
        f.cfg.setVaults(vaultChoices[rng.below(3)]);
        f.cfg.remap.enabled = rng.below(2) == 0;
        // Each stack fans out into one controller queue per vault;
        // cap the stack count so the tick-by-tick reference runs
        // (which step every controller every cycle) stay cheap.
        f.cfg.dram.channels = std::min(f.cfg.dram.channels, 2u);
    }
    // Tiered-composition sampling (drawn AFTER every earlier knob so
    // the pre-v7 rng streams — and CI's pinned coverage — are
    // unchanged): a quarter of the indices wrap the drawn fast tier
    // in the tiered backend, cycling the three policies and both
    // capacity splits, with a monitor window small enough that
    // hotness_based migrations actually fire inside the tiny run.
    if (rng.below(4) == 0) {
        f.cfg.tier.enabled = true;
        const TierPolicy policies[] = {TierPolicy::StaticSplit,
                                       TierPolicy::HotnessBased,
                                       TierPolicy::AlloyCache};
        f.cfg.tier.policy = policies[rng.below(3)];
        f.cfg.tier.fastCapacityPct = rng.below(2) == 0 ? 50 : 25;
        f.cfg.tier.monitorSampleEvery = 2;
        f.cfg.tier.monitorWindowSamples = 64;
    }
    // Small windows keep 64 double (event + reference) runs cheap
    // while still spanning several tREFI periods on every device.
    f.cfg.warmupCoreCycles = 20'000;
    f.cfg.measureCoreCycles = 50'000;
    return f;
}

struct TraceEntry
{
    std::uint32_t channel;
    DramCommandType type;
    std::uint32_t rank, bank;
    std::uint64_t row;
    std::uint32_t column;
    Tick tick;

    bool
    operator==(const TraceEntry &o) const
    {
        return channel == o.channel && type == o.type && rank == o.rank &&
               bank == o.bank && row == o.row && column == o.column &&
               tick == o.tick;
    }
};

struct RunResult
{
    MetricSet metrics;
    Tick endTick{};
    std::vector<TraceEntry> trace;
};

RunResult
runKernel(const FuzzConfig &f, bool reference)
{
    System sys(f.cfg, workloadPreset(f.workload));
    sys.useReferenceKernel(reference);
    RunResult r;
    std::vector<std::vector<TraceEntry>> perCh(sys.numControllers());
    for (std::uint32_t ch = 0; ch < sys.numControllers(); ++ch) {
        sys.controller(ch).channel().setCommandHook(
            [&perCh, ch](const DramCommand &cmd, Tick now) {
                perCh[ch].push_back({ch, cmd.type, cmd.rank, cmd.bank,
                                     cmd.row, cmd.column, now});
            });
    }
    r.metrics = sys.run();
    r.endTick = sys.now();
    // Merge by (tick, channel). The serial kernels' interleaved issue
    // order is exactly this sort: controllers tick in channel-index
    // order and issue at most one command per tick, so the merge is a
    // kernel-independent canonical form.
    for (const auto &v : perCh)
        r.trace.insert(r.trace.end(), v.begin(), v.end());
    std::stable_sort(r.trace.begin(), r.trace.end(),
                     [](const TraceEntry &a, const TraceEntry &b) {
                         return a.tick != b.tick ? a.tick < b.tick
                                                 : a.channel < b.channel;
                     });
    return r;
}

/** Exact command-trace equality with a pinpointed first divergence. */
void
expectTracesIdentical(const RunResult &got, const RunResult &want,
                      const char *gotName, const char *wantName)
{
    ASSERT_EQ(got.trace.size(), want.trace.size())
        << "command counts diverge (" << gotName << " vs " << wantName
        << ")";
    for (std::size_t i = 0; i < got.trace.size(); ++i) {
        ASSERT_TRUE(got.trace[i] == want.trace[i])
            << "command " << i << " diverges: " << gotName << " issued "
            << dramCommandName(got.trace[i].type) << "@ch"
            << got.trace[i].channel << " tick " << got.trace[i].tick
            << ", " << wantName << " issued "
            << dramCommandName(want.trace[i].type) << "@ch"
            << want.trace[i].channel << " tick " << want.trace[i].tick;
    }
}

} // namespace

class KernelFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(KernelFuzz, EventAndReferenceKernelsAgreeOnRandomConfig)
{
    const FuzzConfig f = drawConfig(GetParam());
    SCOPED_TRACE("reproduce with --config spec:\n" + f.specString());

    const RunResult ev = runKernel(f, /*reference=*/false);
    const RunResult ref = runKernel(f, /*reference=*/true);

    // Every MetricSet field must match to the last bit.
    EXPECT_EQ(metricMismatch(ev.metrics, ref.metrics), "");
    EXPECT_EQ(ev.endTick, ref.endTick);

    // Exact command-trace equality: a kernel that skipped a refresh
    // deadline, latch delivery or group-timing boundary shifts this
    // sequence.
    expectTracesIdentical(ev, ref, "event kernel", "reference");
    EXPECT_FALSE(ev.trace.empty()) << "run issued no DRAM commands";
}

INSTANTIATE_TEST_SUITE_P(SixtyFourSeededConfigs, KernelFuzz,
                         ::testing::Range<std::uint64_t>(0, 64));

TEST(KernelFuzzRepro, SpecStringReproducesTheDrawnConfig)
{
    // The printed repro must replay the exact drawn point, both as a
    // spec file and as the equivalent `--key value` flags. Runs no
    // simulation: equal cache keys mean equal configurations.
    for (std::uint64_t index = 0; index < 64; ++index) {
        const FuzzConfig f = drawConfig(index);
        const std::string text = f.specString();
        SCOPED_TRACE(text);
        const std::string want =
            ExperimentRunner::configKey(f.workload, f.cfg);

        ExperimentSpec spec;
        ASSERT_EQ(parseExperimentSpec(text, spec), "");
        const auto points = spec.points();
        ASSERT_EQ(points.size(), 1u);
        EXPECT_EQ(points[0].workload, f.workload);
        EXPECT_EQ(ExperimentRunner::configKey(points[0].workload,
                                              points[0].cfg),
                  want);

        // `key_name = value` -> `--key-name value`.
        std::vector<std::string> args;
        std::istringstream lines(text);
        std::string line;
        while (std::getline(lines, line)) {
            const std::size_t eq = line.find(" = ");
            ASSERT_NE(eq, std::string::npos) << line;
            std::string key = line.substr(0, eq);
            std::replace(key.begin(), key.end(), '_', '-');
            args.push_back("--" + key);
            args.push_back(line.substr(eq + 3));
        }
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        ExperimentOptions opts;
        ASSERT_EQ(opts.parse(static_cast<int>(argv.size()), argv.data()),
                  "");
        ASSERT_EQ(opts.spec.workloads,
                  std::vector<WorkloadId>{f.workload});
        EXPECT_EQ(ExperimentRunner::configKey(f.workload, opts.spec.base),
                  want);
    }
}
