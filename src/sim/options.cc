#include "options.hh"

#include <sstream>

#include "dram/devices.hh"

namespace mcsim {

std::string
ExperimentOptions::parse(int argc, char **argv)
{
    const auto need = [&](int &i) -> const char * {
        return i + 1 < argc ? argv[++i] : nullptr;
    };

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            helpRequested = true;
        } else if (arg == "--list") {
            listRequested = true;
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--fairness") {
            fairness = true;
            if (hasSpec)
                spec.fairness = true;
        } else if (arg == "--workload") {
            const char *v = need(i);
            if (!v || !tryWorkloadFromName(v, workload))
                return "unknown workload for --workload";
            if (hasSpec)
                spec.workloads = {workload};
        } else if (arg == "--scheduler") {
            const char *v = need(i);
            if (!v || !trySchedulerKindFromName(v, config.scheduler))
                return "unknown scheduler for --scheduler";
            if (hasSpec)
                spec.schedulers = {config.scheduler};
        } else if (arg == "--policy") {
            const char *v = need(i);
            if (!v || !tryPagePolicyKindFromName(v, config.pagePolicy))
                return "unknown page policy for --policy";
            if (hasSpec)
                spec.policies = {config.pagePolicy};
        } else if (arg == "--mapping") {
            const char *v = need(i);
            if (!v || !tryMappingSchemeFromName(v, config.mapping))
                return "unknown mapping scheme for --mapping";
            if (hasSpec)
                spec.mappings = {config.mapping};
        } else if (arg == "--group-mapping") {
            const char *v = need(i);
            if (!v ||
                !tryBankGroupMappingFromName(v, config.bankGroupMapping))
                return "unknown bank-group mapping for --group-mapping";
            if (hasSpec)
                spec.groupMappings = {config.bankGroupMapping};
        } else if (arg == "--device") {
            const char *v = need(i);
            const DramDevice *dev = v ? findDramDevice(v) : nullptr;
            if (!dev)
                return "unknown DRAM device for --device (try --list)";
            config.applyDevice(*dev);
            if (hasSpec)
                spec.devices = {dev->name};
        } else if (arg == "--config") {
            const char *v = need(i);
            if (!v)
                return "--config needs a spec file path";
            const std::string err = loadExperimentSpec(v, spec);
            if (!err.empty())
                return "spec '" + std::string(v) + "': " + err;
            hasSpec = true;
            // Scalar keys of the spec shape the single-point config
            // too; later flags may still override them.
            config = spec.base;
            if (spec.workloads.size() == 1)
                workload = spec.workloads.front();
            if (spec.fairness)
                fairness = true;
            else if (fairness)
                spec.fairness = true; // --fairness before --config.
        } else if (arg == "--backend") {
            const char *v = need(i);
            const std::string kind = v ? v : "";
            if (kind == "stacked") {
                // Selecting the stacked backend on a flat configuration
                // means "give me the stacked reference part".
                if (config.dram.vaultsPerStack == 0)
                    config.applyDevice(dramDeviceOrDie("HMC2-8GB"));
                if (hasSpec) {
                    for (const std::string &d : spec.devices) {
                        if (dramDeviceOrDie(d).geometry.vaultsPerStack ==
                            0) {
                            return "--backend stacked conflicts with "
                                   "flat device '" +
                                   d + "' in the sweep";
                        }
                    }
                    if (spec.devices.empty())
                        spec.devices = {config.deviceName};
                    spec.hasBackend = true;
                    spec.backendKind = MemBackendKind::StackedDram;
                }
            } else if (kind == "flat") {
                if (config.dram.vaultsPerStack != 0)
                    return "--backend flat conflicts with stacked "
                           "device '" +
                           config.deviceName +
                           "' (pick a flat part with --device)";
                if (hasSpec) {
                    for (const std::string &d : spec.devices) {
                        if (dramDeviceOrDie(d).geometry.vaultsPerStack >
                            0) {
                            return "--backend flat conflicts with "
                                   "stacked device '" +
                                   d + "' in the sweep";
                        }
                    }
                    spec.hasBackend = true;
                    spec.backendKind = MemBackendKind::FlatDram;
                }
            } else {
                return "--backend must be 'flat' or 'stacked'";
            }
        } else if (arg == "--vaults") {
            const char *v = need(i);
            std::uint64_t n = 0;
            if (!v || !parseUint(v, n) || n == 0 || !isPowerOf2(n))
                return "--vaults needs a power-of-two count";
            if (config.dram.vaultsPerStack == 0)
                return "--vaults applies to the stacked backend only "
                       "(put --backend stacked or a stacked --device "
                       "first)";
            config.setVaults(static_cast<std::uint32_t>(n));
            if (hasSpec)
                spec.vaultCounts = {config.dram.vaultsPerStack};
        } else if (arg == "--remap") {
            const char *v = need(i);
            const std::string mode = v ? v : "";
            if (mode != "on" && mode != "off")
                return "--remap must be 'on' or 'off'";
            if (config.dram.vaultsPerStack == 0)
                return "--remap applies to the stacked backend only "
                       "(put --backend stacked or a stacked --device "
                       "first)";
            config.remap.enabled = mode == "on";
            if (hasSpec) {
                spec.hasRemap = true;
                spec.base.remap.enabled = config.remap.enabled;
            }
        } else if (arg == "--tier") {
            const char *v = need(i);
            const std::string mode = v ? v : "";
            if (mode != "on" && mode != "off")
                return "--tier must be 'on' or 'off'";
            config.tier.enabled = mode == "on";
            if (hasSpec) {
                spec.hasTier = true;
                spec.base.tier.enabled = config.tier.enabled;
            }
        } else if (arg == "--tier-policy") {
            const char *v = need(i);
            if (!v || !tryTierPolicyFromName(v, config.tier.policy))
                return "--tier-policy must be 'static_split', "
                       "'hotness_based', or 'alloy_cache'";
            if (!config.tier.enabled)
                return "--tier-policy applies to the tiered backend "
                       "only (put --tier on first)";
            if (hasSpec)
                spec.base.tier.policy = config.tier.policy;
        } else if (arg == "--tier-latency") {
            const char *v = need(i);
            std::uint64_t n = 0;
            if (!v || !parseUint(v, n) || n > 1'000'000)
                return "--tier-latency needs a DRAM cycle count in "
                       "[0, 1000000]";
            if (!config.tier.enabled)
                return "--tier-latency applies to the tiered backend "
                       "only (put --tier on first)";
            config.tier.slowLatencyDramCycles =
                static_cast<std::uint32_t>(n);
            if (hasSpec)
                spec.base.tier.slowLatencyDramCycles =
                    config.tier.slowLatencyDramCycles;
        } else if (arg == "--tier-bw") {
            const char *v = need(i);
            std::uint64_t n = 0;
            if (!v || !parseUint(v, n) || n == 0 || n > 100)
                return "--tier-bw needs a percentage in [1, 100]";
            if (!config.tier.enabled)
                return "--tier-bw applies to the tiered backend only "
                       "(put --tier on first)";
            config.tier.slowBwPct = static_cast<std::uint32_t>(n);
            if (hasSpec)
                spec.base.tier.slowBwPct = config.tier.slowBwPct;
        } else if (arg == "--tier-capacity-pct") {
            const char *v = need(i);
            std::uint64_t n = 0;
            if (!v || !parseUint(v, n) || n == 0 || n > 100)
                return "--tier-capacity-pct needs a percentage in "
                       "[1, 100]";
            if (!config.tier.enabled)
                return "--tier-capacity-pct applies to the tiered "
                       "backend only (put --tier on first)";
            config.tier.fastCapacityPct = static_cast<std::uint32_t>(n);
            if (hasSpec)
                spec.base.tier.fastCapacityPct =
                    config.tier.fastCapacityPct;
        } else if (arg == "--channels") {
            const char *v = need(i);
            std::uint64_t n = 0;
            if (!v || !parseUint(v, n) || n == 0 || !isPowerOf2(n))
                return "--channels needs a power-of-two count";
            config.dram.channels = static_cast<std::uint32_t>(n);
            if (hasSpec)
                spec.channelCounts = {config.dram.channels};
        } else if (arg == "--warmup") {
            const char *v = need(i);
            std::uint64_t n = 0;
            if (!v || !parseUint(v, n))
                return "--warmup needs a cycle count";
            config.warmupCoreCycles = n;
        } else if (arg == "--measure") {
            const char *v = need(i);
            std::uint64_t n = 0;
            if (!v || !parseUint(v, n) || n == 0)
                return "--measure needs a nonzero cycle count";
            config.measureCoreCycles = n;
        } else if (arg == "--seed") {
            const char *v = need(i);
            std::uint64_t n = 0;
            if (!v || !parseUint(v, n))
                return "--seed needs a number";
            config.seed = n;
        } else if (arg == "--fast") {
            const char *v = need(i);
            std::uint64_t n = 0;
            if (!v || !parseUint(v, n) || n == 0)
                return "--fast needs a nonzero divisor";
            config.warmupCoreCycles /= n;
            config.measureCoreCycles =
                std::max<std::uint64_t>(config.measureCoreCycles / n,
                                        100'000);
        } else if (arg.rfind("--", 0) == 0) {
            return "unknown flag '" + arg + "'";
        } else {
            // A bare acronym selects the workload; anything else stays
            // positional for the tool to interpret.
            WorkloadId w;
            if (tryWorkloadFromName(arg, w)) {
                workload = w;
                if (hasSpec)
                    spec.workloads = {w};
            } else {
                positional.push_back(arg);
            }
        }
    }
    return {};
}

std::string
ExperimentOptions::listText()
{
    std::ostringstream out;
    out << "schedulers:";
    for (auto k : kAllSchedulers)
        out << ' ' << schedulerKindName(k);
    out << "\npolicies:";
    for (auto k : kAllPagePolicies)
        out << ' ' << pagePolicyKindName(k);
    out << "\nmappings:";
    for (auto s : kExtendedMappingSchemes)
        out << ' ' << mappingSchemeName(s);
    out << "\ngroup mappings:";
    for (auto m : kAllBankGroupMappings)
        out << ' ' << bankGroupMappingName(m);
    out << "\nworkloads:";
    for (auto w : kAllWorkloads)
        out << ' ' << workloadAcronym(w);
    out << "\ndevices:\n";
    for (const DramDevice &d : dramDeviceRegistry()) {
        out << "  " << d.name << " (" << d.dataRateMtps << " MT/s, "
            << d.busMhz << " MHz bus, CL" << d.timings.tCAS << '-'
            << d.timings.tRCD << '-' << d.timings.tRP << ", "
            << d.geometry.banksPerRank << " banks/rank";
        if (d.geometry.bankGroupsPerRank > 1) {
            out << " in " << d.geometry.bankGroupsPerRank
                << " groups, tCCD " << d.timings.tCCD << '/'
                << d.timings.tCCDL;
        }
        if (d.timings.perBankRefresh)
            out << ", per-bank refresh";
        // Backend + vault-geometry columns; flat parts show '-'.
        out << ", " << (d.geometry.vaultsPerStack ? "stacked" : "flat")
            << " backend, vaults ";
        if (d.geometry.vaultsPerStack) {
            out << d.geometry.vaultsPerStack << " x "
                << d.geometry.banksPerRank << " banks";
            if (d.timings.tTSV)
                out << ", tTSV " << d.timings.tTSV;
        } else {
            out << '-';
        }
        out << ") — " << d.source << '\n';
    }
    return out.str();
}

std::string
ExperimentOptions::usage(const std::string &tool)
{
    std::ostringstream out;
    out << "usage: " << tool
        << " [workload] [--workload W] [--scheduler S] [--policy P]\n"
        << "       [--mapping M] [--group-mapping G] [--device D] "
           "[--config SPEC]\n"
        << "       [--backend flat|stacked] [--vaults N] [--remap "
           "on|off]\n"
        << "       [--tier on|off] [--tier-policy "
           "static_split|hotness_based|alloy_cache]\n"
        << "       [--tier-latency C] [--tier-bw PCT] "
           "[--tier-capacity-pct PCT]\n"
        << "       [--channels N] [--warmup C] [--measure C] [--seed N] "
           "[--fast D]\n"
        << "       [--csv] [--fairness] [--list]\n\n";
    out << listText();
    return out.str();
}

} // namespace mcsim
