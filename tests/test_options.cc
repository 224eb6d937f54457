/**
 * @file
 * ExperimentOptions tests: flag parsing, every name table, error
 * reporting, and usage generation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "dram/devices.hh"
#include "sim/options.hh"

using namespace mcsim;

namespace {

using Workloads = std::vector<WorkloadId>;

/** Run parse() over a list of string arguments. */
std::string
parseArgs(ExperimentOptions &opts, std::vector<std::string> args)
{
    std::vector<char *> argv;
    argv.reserve(args.size());
    for (auto &a : args)
        argv.push_back(a.data());
    return opts.parse(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(Options, DefaultsMatchBaseline)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {}), "");
    ASSERT_EQ(opts.spec.points().size(), 1u);
    EXPECT_EQ(opts.spec.points()[0].workload, WorkloadId::DS);
    EXPECT_EQ(opts.spec.base.scheduler, SchedulerKind::FrFcfs);
    EXPECT_EQ(opts.spec.base.pagePolicy, PagePolicyKind::OpenAdaptive);
    EXPECT_EQ(opts.spec.base.dram.channels, 1u);
    EXPECT_FALSE(opts.csv);
    EXPECT_FALSE(opts.helpRequested);
}

TEST(Options, ParsesFullConfiguration)
{
    ExperimentOptions opts;
    const std::string err = parseArgs(
        opts, {"--workload", "TPCH-Q6", "--scheduler", "TCM", "--policy",
               "History", "--mapping", "PermBaXor", "--channels", "4",
               "--warmup", "123000", "--measure", "456000", "--seed",
               "42", "--csv"});
    EXPECT_EQ(err, "");
    EXPECT_EQ(opts.spec.workloads, Workloads{WorkloadId::TPCHQ6});
    EXPECT_EQ(opts.spec.base.scheduler, SchedulerKind::Tcm);
    EXPECT_EQ(opts.spec.base.pagePolicy, PagePolicyKind::History);
    EXPECT_EQ(opts.spec.base.mapping, MappingScheme::PermBaXor);
    EXPECT_EQ(opts.spec.base.dram.channels, 4u);
    EXPECT_EQ(opts.spec.base.warmupCoreCycles, 123'000u);
    EXPECT_EQ(opts.spec.base.measureCoreCycles, 456'000u);
    EXPECT_EQ(opts.spec.base.seed, 42u);
    EXPECT_TRUE(opts.csv);
}

TEST(Options, BareAcronymSelectsWorkload)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"WSPEC99"}), "");
    EXPECT_EQ(opts.spec.workloads, Workloads{WorkloadId::WSPEC99});
    EXPECT_TRUE(opts.positional.empty());
}

TEST(Options, UnknownPositionalIsKept)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"some-file.trace"}), "");
    ASSERT_EQ(opts.positional.size(), 1u);
    EXPECT_EQ(opts.positional[0], "some-file.trace");
}

TEST(Options, EveryNameTableRoundtrips)
{
    for (auto w : kAllWorkloads) {
        ExperimentOptions opts;
        EXPECT_EQ(parseArgs(opts, {"--workload", workloadAcronym(w)}),
                  "");
        EXPECT_EQ(opts.spec.workloads, Workloads{w});
    }
    for (auto k : {SchedulerKind::FrFcfs, SchedulerKind::FcfsBanks,
                   SchedulerKind::ParBs, SchedulerKind::Atlas,
                   SchedulerKind::Rl, SchedulerKind::Fcfs,
                   SchedulerKind::Fqm, SchedulerKind::Tcm}) {
        ExperimentOptions opts;
        EXPECT_EQ(parseArgs(opts, {"--scheduler", schedulerKindName(k)}),
                  "");
        EXPECT_EQ(opts.spec.base.scheduler, k);
    }
    for (auto s : kExtendedMappingSchemes) {
        ExperimentOptions opts;
        EXPECT_EQ(parseArgs(opts, {"--mapping", mappingSchemeName(s)}),
                  "");
        EXPECT_EQ(opts.spec.base.mapping, s);
    }
}

TEST(Options, RejectsBadValues)
{
    const std::array<std::vector<std::string>, 8> bad = {{
        {"--workload", "NOPE"},
        {"--scheduler", "LRU"},
        {"--policy", "YOLO"},
        {"--mapping", "RoWrong"},
        {"--channels", "3"},
        {"--measure", "0"},
        {"--flag-that-does-not-exist"},
        {"--kernel-threads", "4"}, // Retired: simulations are serial.
    }};
    for (const auto &args : bad) {
        ExperimentOptions opts;
        EXPECT_NE(parseArgs(opts, args), "") << args[0];
    }
}

TEST(Options, RejectsMissingValues)
{
    for (const char *flag : {"--workload", "--scheduler", "--policy",
                             "--mapping", "--channels", "--seed"}) {
        ExperimentOptions opts;
        EXPECT_NE(parseArgs(opts, {flag}), "") << flag;
    }
}

TEST(Options, FastDividesWindows)
{
    ExperimentOptions opts;
    const auto warm = opts.spec.base.warmupCoreCycles;
    const auto meas = opts.spec.base.measureCoreCycles;
    EXPECT_EQ(parseArgs(opts, {"--fast", "4"}), "");
    EXPECT_EQ(opts.spec.base.warmupCoreCycles, warm / 4);
    EXPECT_EQ(opts.spec.base.measureCoreCycles, meas / 4);
}

TEST(Options, FastClampsMeasureFloor)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"--fast", "1000000"}), "");
    EXPECT_EQ(opts.spec.base.measureCoreCycles, 100'000u);

    // Divisor 1 divides nothing, so it floors nothing either.
    ExperimentOptions one;
    EXPECT_EQ(parseArgs(one, {"--measure", "50000", "--fast", "1"}), "");
    EXPECT_EQ(one.spec.base.measureCoreCycles, 50'000u);
}

TEST(Options, FairnessFlagPropagatesToSpec)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"--fairness"}), "");
    EXPECT_TRUE(opts.spec.fairness);

    // --fairness before --config marks the loaded sweep too.
    const std::string path =
        std::string(::testing::TempDir()) + "/cloudmc_fairopts.spec";
    {
        std::ofstream out(path);
        out << "workload = WS\n";
    }
    ExperimentOptions before;
    EXPECT_EQ(parseArgs(before, {"--fairness", "--config", path}), "");
    EXPECT_TRUE(before.spec.fairness);

    // A spec with `fairness = on` turns the option on as well.
    {
        std::ofstream out(path);
        out << "fairness = on\n";
    }
    ExperimentOptions fromSpec;
    EXPECT_EQ(parseArgs(fromSpec, {"--config", path}), "");
    EXPECT_TRUE(fromSpec.spec.fairness);
    std::remove(path.c_str());
}

TEST(Options, HelpFlagSetsRequest)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"--help"}), "");
    EXPECT_TRUE(opts.helpRequested);
}

TEST(Options, UsageListsEverything)
{
    const std::string u = ExperimentOptions::usage("tool");
    EXPECT_NE(u.find("tool"), std::string::npos);
    for (auto w : kAllWorkloads)
        EXPECT_NE(u.find(workloadAcronym(w)), std::string::npos);
    EXPECT_NE(u.find("TCM"), std::string::npos);
    EXPECT_NE(u.find("History"), std::string::npos);
    EXPECT_NE(u.find("PermChBaXor"), std::string::npos);
    // Devices joined the enumerations with the registry refactor.
    EXPECT_NE(u.find("DDR4-2400"), std::string::npos);
    EXPECT_NE(u.find("LPDDR3-1600"), std::string::npos);
}

TEST(Options, ListFlagEnumeratesEverything)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"--list"}), "");
    EXPECT_TRUE(opts.listRequested);
    const std::string l = ExperimentOptions::listText();
    for (const DramDevice &d : dramDeviceRegistry())
        EXPECT_NE(l.find(d.name), std::string::npos);
    EXPECT_NE(l.find("schedulers:"), std::string::npos);
    EXPECT_NE(l.find("policies:"), std::string::npos);
    EXPECT_NE(l.find("mappings:"), std::string::npos);
    EXPECT_NE(l.find("workloads:"), std::string::npos);
}

TEST(Options, DeviceFlagAppliesRegistryEntry)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"--device", "DDR4-2400", "--channels",
                               "2"}),
              "");
    EXPECT_EQ(opts.spec.base.deviceName, "DDR4-2400");
    EXPECT_EQ(opts.spec.base.clocks.dramMhz, 1200u);
    EXPECT_EQ(opts.spec.base.dram.channels, 2u);
    EXPECT_EQ(opts.spec.base.dram.banksPerRank, 16u);

    ExperimentOptions bad;
    EXPECT_NE(parseArgs(bad, {"--device", "SDRAM-133"}), "");
    EXPECT_NE(parseArgs(bad, {"--device"}), "");
}

TEST(Options, ConfigFlagLoadsASpec)
{
    const std::string path = std::string(::testing::TempDir()) +
                             "/cloudmc_optspec.spec";
    {
        std::ofstream out(path);
        out << "devices = DDR3-1600, DDR4-2400\n"
            << "workload = WS\n"
            << "seed = 11\n";
    }
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"--config", path}), "");
    EXPECT_TRUE(opts.hasSpec);
    EXPECT_EQ(opts.spec.pointCount(), 2u);
    EXPECT_EQ(opts.spec.workloads, Workloads{WorkloadId::WS});
    EXPECT_EQ(opts.spec.base.seed, 11u); // Scalars merge into config.

    ExperimentOptions missing;
    const std::string err =
        parseArgs(missing, {"--config", "/no/such.spec"});
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(Options, AxisFlagsAfterConfigCollapseTheSweep)
{
    const std::string path = std::string(::testing::TempDir()) +
                             "/cloudmc_optspec_override.spec";
    {
        std::ofstream out(path);
        out << "devices = DDR3-1600, DDR4-2400, LPDDR3-1600\n"
            << "schedulers = FR-FCFS, ATLAS\n"
            << "workloads = WS, DS\n";
    }
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"--config", path, "--device",
                               "DDR4-2400", "--workload", "WS"}),
              "");
    // Each axis flag after --config narrows that axis to one value;
    // untouched axes keep the spec's lists.
    ASSERT_EQ(opts.spec.devices.size(), 1u);
    EXPECT_EQ(opts.spec.devices[0], "DDR4-2400");
    ASSERT_EQ(opts.spec.workloads.size(), 1u);
    EXPECT_EQ(opts.spec.workloads[0], WorkloadId::WS);
    EXPECT_EQ(opts.spec.schedulers.size(), 2u);
    EXPECT_EQ(opts.spec.pointCount(), 2u);
    std::remove(path.c_str());
}

TEST(Options, NegativeNumbersAreRejected)
{
    ExperimentOptions opts;
    EXPECT_NE(parseArgs(opts, {"--seed", "-3"}), "");
    EXPECT_NE(parseArgs(opts, {"--measure", "-1"}), "");
}

TEST(Options, BackendFlagSelectsStackedPart)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"--backend", "stacked", "--vaults", "8",
                               "--remap", "on"}),
              "");
    EXPECT_EQ(opts.spec.base.deviceName, "HMC2-8GB");
    EXPECT_EQ(opts.spec.base.dram.vaultsPerStack, 8u);
    EXPECT_TRUE(opts.spec.base.remap.enabled);

    // --backend flat on the (flat) baseline is a no-op.
    ExperimentOptions flat;
    EXPECT_EQ(parseArgs(flat, {"--backend", "flat"}), "");
    EXPECT_EQ(flat.spec.base.dram.vaultsPerStack, 0u);
}

TEST(Options, StackedOnlyFlagsAreNamedErrorsOnFlat)
{
    ExperimentOptions opts;
    std::string err = parseArgs(opts, {"--remap", "on"});
    EXPECT_NE(err.find("stacked backend only"), std::string::npos)
        << err;

    err = parseArgs(opts, {"--vaults", "8"});
    EXPECT_NE(err.find("stacked backend only"), std::string::npos)
        << err;

    err = parseArgs(opts, {"--vaults", "3", "--backend", "stacked"});
    EXPECT_NE(err.find("power-of-two"), std::string::npos) << err;

    err = parseArgs(opts, {"--device", "HMC2-8GB", "--backend", "flat"});
    EXPECT_NE(err.find("stacked device"), std::string::npos) << err;

    err = parseArgs(opts, {"--backend", "diagonal"});
    EXPECT_NE(err.find("'flat' or 'stacked'"), std::string::npos) << err;
}

TEST(Options, ListShowsBackendAndVaultColumns)
{
    const std::string l = ExperimentOptions::listText();
    // Flat parts show a '-' vault column; the stacked part shows its
    // geometry and the TSV timing.
    EXPECT_NE(l.find("flat backend, vaults -"), std::string::npos) << l;
    EXPECT_NE(l.find("stacked backend, vaults 16 x 8 banks"),
              std::string::npos)
        << l;
    EXPECT_NE(l.find("tTSV"), std::string::npos) << l;
    EXPECT_NE(l.find("HMC2-8GB"), std::string::npos) << l;
}

TEST(Options, FlagsBeforeConfigAreKept)
{
    // Flags and --config lines apply in argv order: a file that sets
    // only the workload must not reset earlier flags to the baseline.
    const std::string path = std::string(::testing::TempDir()) +
                             "/cloudmc_optspec_order.spec";
    {
        std::ofstream out(path);
        out << "workload = WS\n";
    }
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"--seed", "5", "--channels", "2",
                               "--config", path}),
              "");
    EXPECT_EQ(opts.spec.base.seed, 5u);
    EXPECT_EQ(opts.spec.base.dram.channels, 2u);
    EXPECT_EQ(opts.spec.workloads, Workloads{WorkloadId::WS});
    ASSERT_EQ(opts.spec.points().size(), 1u);
    EXPECT_EQ(opts.spec.points()[0].cfg.seed, 5u);
    EXPECT_EQ(opts.spec.points()[0].cfg.dram.channels, 2u);
    std::remove(path.c_str());
}

TEST(Options, StackedBackendOnFlatDeviceIsANamedError)
{
    // Same named error as the spec lines `device = DDR4-2400` +
    // `backend = stacked`, never a silent switch to the stacked part.
    ExperimentOptions opts;
    const std::string err = parseArgs(
        opts, {"--device", "DDR4-2400", "--backend", "stacked"});
    EXPECT_NE(err.find("DDR4-2400"), std::string::npos) << err;
    EXPECT_NE(err.find("flat JEDEC part"), std::string::npos) << err;
}

TEST(Options, ScopeChecksIgnoreFlagOrder)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"--tier-latency", "64", "--tier", "on"}),
              "");
    EXPECT_TRUE(opts.spec.base.tier.enabled);
    EXPECT_EQ(opts.spec.base.tier.slowLatencyDramCycles, 64u);

    ExperimentOptions stacked;
    EXPECT_EQ(parseArgs(stacked, {"--vaults", "8", "--device",
                                  "HMC2-8GB"}),
              "");
    EXPECT_EQ(stacked.spec.base.dram.vaultsPerStack, 8u);
}

TEST(Options, EverySpecKeyIsAFlagInUsage)
{
    const std::string u = ExperimentOptions::usage("tool");
    for (const SpecKey &k : kSpecKeys) {
        std::string flag = std::string("--") + k.name;
        std::replace(flag.begin(), flag.end(), '_', '-');
        EXPECT_NE(u.find(flag + " "), std::string::npos) << flag;
    }
    // The flag spelling uses dashes only.
    ExperimentOptions opts;
    EXPECT_NE(parseArgs(opts, {"--tier", "on", "--tier_bw", "50"}), "");
}

TEST(Options, ListFlagsSweepWithoutASpecFile)
{
    ExperimentOptions opts;
    EXPECT_EQ(parseArgs(opts, {"--scheduler", "FR-FCFS,ATLAS", "WS"}),
              "");
    EXPECT_FALSE(opts.hasSpec);
    EXPECT_EQ(opts.spec.pointCount(), 2u);
}

TEST(Options, FairnessFlagTakesAnOptionalValue)
{
    ExperimentOptions on;
    EXPECT_EQ(parseArgs(on, {"--fairness", "WS"}), "");
    EXPECT_TRUE(on.spec.fairness);
    EXPECT_EQ(on.spec.workloads, Workloads{WorkloadId::WS});

    ExperimentOptions off;
    EXPECT_EQ(parseArgs(off, {"--fairness", "--fairness", "off"}), "");
    EXPECT_FALSE(off.spec.fairness);
}
