/**
 * @file
 * Declarative experiment specs: parsing, cross-product expansion,
 * base-config shaping, and the error paths (unknown key, bad value,
 * missing file) that must produce line-numbered diagnostics instead
 * of silently mis-running a study.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "sim/spec.hh"

using namespace mcsim;

namespace {

std::string
tempSpecPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/cloudmc_spec_" + tag +
           ".spec";
}

} // namespace

TEST(Spec, EmptyTextIsTheBaselinePoint)
{
    ExperimentSpec spec;
    ASSERT_EQ(parseExperimentSpec("", spec), "");
    EXPECT_EQ(spec.pointCount(), 1u);
    const auto points = spec.points();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].cfg.deviceName, "DDR3-1600");
    EXPECT_EQ(points[0].workload, WorkloadId::DS);
}

TEST(Spec, CommentsAndBlanksAreIgnored)
{
    ExperimentSpec spec;
    ASSERT_EQ(parseExperimentSpec("# a comment\n"
                                  "\n"
                                  "scheduler = ATLAS  # trailing\n",
                                  spec),
              "");
    ASSERT_EQ(spec.schedulers.size(), 1u);
    EXPECT_EQ(spec.schedulers[0], SchedulerKind::Atlas);
    EXPECT_EQ(spec.base.scheduler, SchedulerKind::Atlas);
}

TEST(Spec, CrossProductExpandsEveryAxis)
{
    ExperimentSpec spec;
    ASSERT_EQ(parseExperimentSpec(
                  "devices = DDR3-1600, DDR4-2400\n"
                  "schedulers = FR-FCFS, ATLAS, TCM\n"
                  "channels = 1, 2\n"
                  "workloads = WS, DS\n"
                  "measure = 400000\n"
                  "seed = 7\n",
                  spec),
              "");
    EXPECT_EQ(spec.pointCount(), 2u * 3u * 2u * 2u);
    const auto points = spec.points();
    ASSERT_EQ(points.size(), 24u);
    // Every point carries the scalar overrides and its own device.
    std::size_t ddr4 = 0;
    for (const auto &p : points) {
        EXPECT_EQ(p.cfg.measureCoreCycles, 400'000u);
        EXPECT_EQ(p.cfg.seed, 7u);
        if (p.cfg.deviceName == "DDR4-2400") {
            ++ddr4;
            EXPECT_EQ(p.cfg.clocks.dramMhz, 1200u);
            EXPECT_EQ(p.cfg.timings.tCAS, 17u);
        }
    }
    EXPECT_EQ(ddr4, 12u);
}

TEST(Spec, SingleValuedAxesShapeTheBaseConfig)
{
    ExperimentSpec spec;
    ASSERT_EQ(parseExperimentSpec("device = LPDDR3-1600\n"
                                  "policy = Close\n"
                                  "channels = 2\n"
                                  "core_mhz = 3000\n"
                                  "refresh = off\n",
                                  spec),
              "");
    EXPECT_EQ(spec.base.deviceName, "LPDDR3-1600");
    EXPECT_EQ(spec.base.pagePolicy, PagePolicyKind::Close);
    EXPECT_EQ(spec.base.dram.channels, 2u);
    EXPECT_EQ(spec.base.clocks.coreMhz, 3000u);
    EXPECT_FALSE(spec.base.refreshEnabled);
}

TEST(Spec, UnknownKeyIsALineNumberedError)
{
    // kernel_threads is retired: simulations always run serially.
    for (const std::string key : {"frobnicate", "kernel_threads"}) {
        ExperimentSpec spec;
        const std::string err =
            parseExperimentSpec("seed = 1\n" + key + " = 4\n", spec);
        EXPECT_NE(err.find("line 2"), std::string::npos) << err;
        EXPECT_NE(err.find("unknown key '" + key + "'"), std::string::npos)
            << err;
    }
}

TEST(Spec, BadValuesAreLineNumberedErrors)
{
    ExperimentSpec spec;
    std::string err = parseExperimentSpec("device = DDR9-9999\n", spec);
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;
    EXPECT_NE(err.find("DDR9-9999"), std::string::npos) << err;

    err = parseExperimentSpec("schedulers = FR-FCFS, NOPE\n", spec);
    EXPECT_NE(err.find("unknown scheduler 'NOPE'"), std::string::npos)
        << err;

    err = parseExperimentSpec("channels = 3\n", spec);
    EXPECT_NE(err.find("channel count"), std::string::npos) << err;

    err = parseExperimentSpec("measure = zero\n", spec);
    EXPECT_NE(err.find("measure"), std::string::npos) << err;

    err = parseExperimentSpec("refresh = maybe\n", spec);
    EXPECT_NE(err.find("refresh"), std::string::npos) << err;

    err = parseExperimentSpec("just some words\n", spec);
    EXPECT_NE(err.find("expected 'key = value'"), std::string::npos)
        << err;

    err = parseExperimentSpec("workload =\n", spec);
    EXPECT_NE(err.find("missing value"), std::string::npos) << err;
}

TEST(Spec, MissingFileIsAnError)
{
    ExperimentSpec spec;
    const std::string err =
        loadExperimentSpec("/nonexistent/path/x.spec", spec);
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST(Spec, LoadsFromDiskAndRoundTrips)
{
    const std::string path = tempSpecPath("roundtrip");
    {
        std::ofstream out(path);
        out << "# device sweep\n"
            << "devices = DDR3-1600, DDR3-1866\n"
            << "workload = WS\n";
    }
    ExperimentSpec spec;
    ASSERT_EQ(loadExperimentSpec(path, spec), "");
    EXPECT_EQ(spec.pointCount(), 2u);
    ASSERT_EQ(spec.workloads.size(), 1u);
    EXPECT_EQ(spec.workloads[0], WorkloadId::WS);
    std::remove(path.c_str());
}

TEST(Spec, GroupMappingAxisExpandsAndShapesBase)
{
    ExperimentSpec spec;
    ASSERT_EQ(parseExperimentSpec("device = DDR4-2400\n"
                                  "group_mappings = GroupInterleaved, "
                                  "GroupPacked\n"
                                  "workload = WS\n",
                                  spec),
              "");
    EXPECT_EQ(spec.pointCount(), 2u);
    const auto points = spec.points();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].cfg.bankGroupMapping,
              BankGroupMapping::GroupInterleaved);
    EXPECT_EQ(points[1].cfg.bankGroupMapping,
              BankGroupMapping::GroupPacked);

    // A single-valued axis (short form accepted) shapes the base.
    ExperimentSpec one;
    ASSERT_EQ(parseExperimentSpec("group_mapping = packed\n", one), "");
    EXPECT_EQ(one.base.bankGroupMapping, BankGroupMapping::GroupPacked);
}

TEST(Spec, BadGroupMappingIsALineNumberedError)
{
    ExperimentSpec spec;
    const std::string err =
        parseExperimentSpec("group_mapping = diagonal\n", spec);
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;
    EXPECT_NE(err.find("bank-group mapping"), std::string::npos) << err;
}

TEST(Spec, StackedBackendSelectsTheReferencePart)
{
    // `backend = stacked` with no device axis means "the stacked
    // reference part"; the vault axis expands per point.
    ExperimentSpec spec;
    ASSERT_EQ(parseExperimentSpec("backend = stacked\n"
                                  "vaults = 16, 8, 4\n"
                                  "remap = on\n"
                                  "workload = WS\n",
                                  spec),
              "");
    EXPECT_EQ(spec.base.deviceName, "HMC2-8GB");
    EXPECT_GT(spec.base.dram.vaultsPerStack, 0u);
    EXPECT_TRUE(spec.base.remap.enabled);
    EXPECT_EQ(spec.pointCount(), 3u);
    const auto points = spec.points();
    ASSERT_EQ(points.size(), 3u);
    std::uint64_t capacity = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_GT(points[i].cfg.dram.vaultsPerStack, 0u);
        EXPECT_TRUE(points[i].cfg.remap.enabled);
        // The vault sweep preserves capacity (rows scale inversely).
        if (i == 0)
            capacity = points[i].cfg.dram.capacityBytes();
        EXPECT_EQ(points[i].cfg.dram.capacityBytes(), capacity);
    }
    EXPECT_EQ(points[0].cfg.dram.vaultsPerStack, 16u);
    EXPECT_EQ(points[1].cfg.dram.vaultsPerStack, 8u);
    EXPECT_EQ(points[2].cfg.dram.vaultsPerStack, 4u);
}

TEST(Spec, RemapOnFlatBackendIsANamedError)
{
    // A silently ignored remap key would masquerade as a null result;
    // the loader must reject it by name.
    ExperimentSpec spec;
    std::string err = parseExperimentSpec("remap = on\n", spec);
    EXPECT_NE(err.find("remap applies to the stacked backend only"),
              std::string::npos)
        << err;

    // Even `remap = off` names a knob the flat backend does not have.
    err = parseExperimentSpec("remap = off\n", spec);
    EXPECT_NE(err.find("remap applies to the stacked backend only"),
              std::string::npos)
        << err;

    err = parseExperimentSpec("device = DDR4-2400\nremap = on\n", spec);
    EXPECT_NE(err.find("DDR4-2400"), std::string::npos) << err;

    err = parseExperimentSpec("vaults = 8\n", spec);
    EXPECT_NE(err.find("vaults applies to the stacked backend only"),
              std::string::npos)
        << err;
}

TEST(Spec, BackendDeviceMismatchesAreNamedErrors)
{
    ExperimentSpec spec;
    std::string err = parseExperimentSpec("backend = stacked\n"
                                          "device = DDR3-1600\n",
                                          spec);
    EXPECT_NE(err.find("flat JEDEC part"), std::string::npos) << err;

    err = parseExperimentSpec("backend = flat\n"
                              "device = HMC2-8GB\n",
                              spec);
    EXPECT_NE(err.find("stacked part"), std::string::npos) << err;

    err = parseExperimentSpec("backend = sideways\n", spec);
    EXPECT_NE(err.find("backend must be 'flat' or 'stacked'"),
              std::string::npos)
        << err;

    // A stacked device without the backend key still works: the
    // backend kind follows the device geometry.
    ASSERT_EQ(parseExperimentSpec("device = HMC2-8GB\nremap = on\n",
                                  spec),
              "");
    EXPECT_GT(spec.base.dram.vaultsPerStack, 0u);
    EXPECT_TRUE(spec.base.remap.enabled);
}

TEST(Spec, TierKeysShapeTheBaseConfig)
{
    ExperimentSpec spec;
    ASSERT_EQ(parseExperimentSpec("tier = on\n"
                                  "tier_policy = alloy_cache\n"
                                  "tier_latency = 120\n"
                                  "tier_bw = 40\n"
                                  "tier_capacity_pct = 25\n"
                                  "tier_hot_factor = 3.5\n"
                                  "tier_migration_cycles = 32\n"
                                  "monitor_sample = 8\n"
                                  "monitor_window = 512\n"
                                  "monitor_min_regions = 8\n"
                                  "monitor_max_regions = 64\n",
                                  spec),
              "");
    EXPECT_TRUE(spec.base.tier.enabled);
    EXPECT_EQ(spec.base.tier.policy, TierPolicy::AlloyCache);
    EXPECT_EQ(spec.base.tier.slowLatencyDramCycles, 120u);
    EXPECT_EQ(spec.base.tier.slowBwPct, 40u);
    EXPECT_EQ(spec.base.tier.fastCapacityPct, 25u);
    EXPECT_DOUBLE_EQ(spec.base.tier.hotFactor, 3.5);
    EXPECT_EQ(spec.base.tier.migrationCyclesPerRow, 32u);
    EXPECT_EQ(spec.base.tier.monitorSampleEvery, 8u);
    EXPECT_EQ(spec.base.tier.monitorWindowSamples, 512u);
    EXPECT_EQ(spec.base.tier.monitorMinRegions, 8u);
    EXPECT_EQ(spec.base.tier.monitorMaxRegions, 64u);

    // Every expanded point carries the tier shape.
    const auto points = spec.points();
    ASSERT_FALSE(points.empty());
    EXPECT_TRUE(points[0].cfg.tier.enabled);
    EXPECT_EQ(points[0].cfg.tier.fastCapacityPct, 25u);

    // 'tier = off' alone is legal: explicitly declining the tiered
    // backend is not a tiered-only key.
    ExperimentSpec off;
    ASSERT_EQ(parseExperimentSpec("tier = off\n", off), "");
    EXPECT_FALSE(off.base.tier.enabled);
}

TEST(Spec, TierPolicyNamesAllParse)
{
    const struct {
        const char *name;
        TierPolicy policy;
    } cases[] = {
        {"static_split", TierPolicy::StaticSplit},
        {"hotness_based", TierPolicy::HotnessBased},
        {"alloy_cache", TierPolicy::AlloyCache},
    };
    for (const auto &c : cases) {
        ExperimentSpec spec;
        const std::string text =
            std::string("tier = on\ntier_policy = ") + c.name + "\n";
        ASSERT_EQ(parseExperimentSpec(text, spec), "") << c.name;
        EXPECT_EQ(spec.base.tier.policy, c.policy) << c.name;
    }
}

TEST(Spec, BadTierValuesAreLineNumberedErrors)
{
    const struct {
        const char *line;
        const char *expect;
    } cases[] = {
        {"tier = maybe", "tier must be 'on' or 'off'"},
        {"tier_policy = lru", "tier_policy must be"},
        {"tier_latency = -1", "tier_latency needs"},
        {"tier_latency = 1000001", "tier_latency needs"},
        {"tier_bw = 0", "tier_bw needs a percentage in [1, 100]"},
        {"tier_bw = 101", "tier_bw needs a percentage in [1, 100]"},
        {"tier_capacity_pct = 0", "tier_capacity_pct needs"},
        {"tier_capacity_pct = 150", "tier_capacity_pct needs"},
        {"tier_hot_factor = 0", "tier_hot_factor needs a number > 0"},
        {"tier_hot_factor = bogus", "tier_hot_factor needs"},
        {"tier_migration_cycles = 0", "tier_migration_cycles needs"},
        {"monitor_sample = 0", "monitor_sample needs"},
        {"monitor_window = 0", "monitor_window needs"},
        {"monitor_min_regions = 0", "monitor_min_regions needs"},
        {"monitor_max_regions = 0", "monitor_max_regions needs"},
    };
    for (const auto &c : cases) {
        ExperimentSpec spec;
        const std::string text = std::string("tier = on\n") + c.line + "\n";
        const std::string errText = parseExperimentSpec(text, spec);
        EXPECT_NE(errText.find(c.expect), std::string::npos)
            << c.line << " -> " << errText;
        EXPECT_NE(errText.find("line 2"), std::string::npos)
            << c.line << " -> " << errText;
    }
}

TEST(Spec, TierOnlyKeysWithoutTierAreNamedErrors)
{
    // Mirrors RemapOnFlatBackendIsANamedError: a tier-only knob on a
    // config that never composes the tiered backend is a spec bug.
    const char *lines[] = {
        "tier_policy = hotness_based", "tier_latency = 64",
        "tier_bw = 50",                "tier_capacity_pct = 50",
        "tier_hot_factor = 2.0",       "tier_migration_cycles = 64",
        "monitor_sample = 4",          "monitor_window = 2048",
        "monitor_min_regions = 16",    "monitor_max_regions = 256",
    };
    for (const char *line : lines) {
        ExperimentSpec spec;
        const std::string errText =
            parseExperimentSpec(std::string(line) + "\n", spec);
        EXPECT_NE(errText.find("applies to the tiered backend only"),
                  std::string::npos)
            << line << " -> " << errText;
        EXPECT_NE(errText.find("put 'tier = on' first"),
                  std::string::npos)
            << line << " -> " << errText;
    }

    // The error names the FIRST tier-only key seen, and fires even
    // when 'tier = off' appears explicitly afterwards.
    ExperimentSpec spec;
    const std::string errText = parseExperimentSpec(
        "tier_bw = 50\ntier = off\ntier_latency = 64\n", spec);
    EXPECT_NE(errText.find("'tier_bw'"), std::string::npos) << errText;
}

TEST(Spec, MonitorRegionBoundsMismatchIsANamedError)
{
    ExperimentSpec spec;
    const std::string errText =
        parseExperimentSpec("tier = on\n"
                            "monitor_min_regions = 64\n"
                            "monitor_max_regions = 16\n",
                            spec);
    EXPECT_NE(errText.find("monitor_max_regions"), std::string::npos)
        << errText;
    EXPECT_NE(errText.find("monitor_min_regions"), std::string::npos)
        << errText;
}

TEST(Spec, TieredSpecWorksOnTheStackedBackend)
{
    // The fast tier can itself be the stacked backend; the two layers'
    // keys compose in one spec.
    ExperimentSpec spec;
    ASSERT_EQ(parseExperimentSpec("device = HMC2-8GB\n"
                                  "tier = on\n"
                                  "tier_policy = static_split\n",
                                  spec),
              "");
    EXPECT_GT(spec.base.dram.vaultsPerStack, 0u);
    EXPECT_TRUE(spec.base.tier.enabled);
    EXPECT_EQ(spec.base.tier.policy, TierPolicy::StaticSplit);
}
