#include "spec.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/bitutils.hh"
#include "dram/devices.hh"

namespace mcsim {

namespace {

/** Trim ASCII whitespace from both ends. */
std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** Split a comma-separated value list, trimming each element. */
std::vector<std::string>
splitList(const std::string &value)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t comma = value.find(',', start);
        const std::string item = trim(
            comma == std::string::npos ? value.substr(start)
                                       : value.substr(start, comma - start));
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

/** Parse one list-valued axis through a per-item name lookup. */
template <typename T, typename Lookup>
std::string
parseAxis(const std::string &value, const char *what, Lookup lookup,
          std::vector<T> &out)
{
    out.clear();
    for (const std::string &item : splitList(value)) {
        T parsed;
        if (!lookup(item, parsed))
            return std::string("unknown ") + what + " '" + item + "'";
        out.push_back(parsed);
    }
    if (out.empty())
        return std::string("empty ") + what + " list";
    return {};
}

} // namespace

bool
parseUint(const std::string &text, std::uint64_t &out)
{
    // Digits only: strtoull would silently wrap "-1" to 2^64-1.
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0]))) {
        return false;
    }
    char *end = nullptr;
    out = std::strtoull(text.c_str(), &end, 10);
    return end && *end == '\0';
}

std::size_t
ExperimentSpec::pointCount() const
{
    const auto n = [](std::size_t axis) { return axis ? axis : 1; };
    return n(devices.size()) * n(schedulers.size()) * n(policies.size()) *
           n(mappings.size()) * n(groupMappings.size()) *
           n(channelCounts.size()) * n(vaultCounts.size()) *
           n(workloads.size());
}

std::vector<ExperimentRunner::Point>
ExperimentSpec::points() const
{
    // Empty axes collapse to the base configuration's single value.
    const std::vector<std::string> devs =
        devices.empty() ? std::vector<std::string>{base.deviceName}
                        : devices;
    const auto scheds = schedulers.empty()
                            ? std::vector<SchedulerKind>{base.scheduler}
                            : schedulers;
    const auto pols = policies.empty()
                          ? std::vector<PagePolicyKind>{base.pagePolicy}
                          : policies;
    const auto maps = mappings.empty()
                          ? std::vector<MappingScheme>{base.mapping}
                          : mappings;
    const auto gmaps =
        groupMappings.empty()
            ? std::vector<BankGroupMapping>{base.bankGroupMapping}
            : groupMappings;
    const auto chans =
        channelCounts.empty() ? std::vector<std::uint32_t>{
                                    base.dram.channels}
                              : channelCounts;
    const auto wls = workloads.empty()
                         ? std::vector<WorkloadId>{WorkloadId::DS}
                         : workloads;
    // 0 = keep the device's registry vault count (also the flat case).
    const auto vaults = vaultCounts.empty()
                            ? std::vector<std::uint32_t>{0}
                            : vaultCounts;

    std::vector<ExperimentRunner::Point> out;
    out.reserve(devs.size() * scheds.size() * pols.size() * maps.size() *
                gmaps.size() * chans.size() * vaults.size() * wls.size());
    for (const std::string &dev : devs) {
        SimConfig devCfg = base;
        devCfg.applyDevice(dramDeviceOrDie(dev));
        for (auto sched : scheds) {
            for (auto pol : pols) {
                for (auto map : maps) {
                    for (auto gmap : gmaps) {
                        for (auto ch : chans) {
                            for (auto vc : vaults) {
                                SimConfig cfg = devCfg;
                                cfg.scheduler = sched;
                                cfg.pagePolicy = pol;
                                cfg.mapping = map;
                                cfg.bankGroupMapping = gmap;
                                cfg.dram.channels = ch;
                                if (vc)
                                    cfg.setVaults(vc);
                                for (auto wl : wls) {
                                    ExperimentRunner::Point p(wl, cfg);
                                    if (fairness) {
                                        ExperimentRunner::
                                            attachAloneBaseline(p);
                                    }
                                    out.push_back(std::move(p));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return out;
}

std::string
parseExperimentSpec(const std::string &text, ExperimentSpec &out)
{
    out = ExperimentSpec{};
    std::istringstream in(text);
    std::string line;
    int lineNo = 0;
    const auto err = [&lineNo](const std::string &msg) {
        return "line " + std::to_string(lineNo) + ": " + msg;
    };

    while (std::getline(in, line)) {
        ++lineNo;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;

        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            return err("expected 'key = value', got '" + line + "'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            return err("missing key before '='");
        if (value.empty())
            return err("missing value for '" + key + "'");

        std::string axisErr;
        if (key == "device" || key == "devices") {
            axisErr = parseAxis<std::string>(
                value, "device",
                [](const std::string &n, std::string &o) {
                    if (!findDramDevice(n))
                        return false;
                    o = n;
                    return true;
                },
                out.devices);
        } else if (key == "scheduler" || key == "schedulers") {
            axisErr = parseAxis<SchedulerKind>(value, "scheduler",
                                               trySchedulerKindFromName,
                                               out.schedulers);
        } else if (key == "policy" || key == "policies") {
            axisErr = parseAxis<PagePolicyKind>(value, "page policy",
                                                tryPagePolicyKindFromName,
                                                out.policies);
        } else if (key == "mapping" || key == "mappings") {
            axisErr = parseAxis<MappingScheme>(value, "mapping scheme",
                                               tryMappingSchemeFromName,
                                               out.mappings);
        } else if (key == "group_mapping" || key == "group_mappings") {
            axisErr = parseAxis<BankGroupMapping>(
                value, "bank-group mapping",
                tryBankGroupMappingFromName, out.groupMappings);
        } else if (key == "workload" || key == "workloads") {
            axisErr = parseAxis<WorkloadId>(value, "workload",
                                            tryWorkloadFromName,
                                            out.workloads);
        } else if (key == "channels") {
            axisErr = parseAxis<std::uint32_t>(
                value, "channel count",
                [](const std::string &n, std::uint32_t &o) {
                    std::uint64_t v = 0;
                    if (!parseUint(n, v) || v == 0 || !isPowerOf2(v))
                        return false;
                    o = static_cast<std::uint32_t>(v);
                    return true;
                },
                out.channelCounts);
        } else if (key == "core_mhz") {
            std::uint64_t v = 0;
            if (!parseUint(value, v) || v == 0 || v > 1'000'000)
                return err("core_mhz needs an integer in [1, 1000000] "
                           "MHz, got '" +
                           value + "'");
            out.base.setCoreMhz(static_cast<std::uint32_t>(v));
        } else if (key == "warmup") {
            std::uint64_t v = 0;
            if (!parseUint(value, v))
                return err("warmup needs a cycle count, got '" + value +
                           "'");
            out.base.warmupCoreCycles = v;
        } else if (key == "measure") {
            std::uint64_t v = 0;
            if (!parseUint(value, v) || v == 0)
                return err("measure needs a nonzero cycle count, got '" +
                           value + "'");
            out.base.measureCoreCycles = v;
        } else if (key == "seed") {
            std::uint64_t v = 0;
            if (!parseUint(value, v))
                return err("seed needs an integer, got '" + value + "'");
            out.base.seed = v;
        } else if (key == "refresh") {
            if (value == "on")
                out.base.refreshEnabled = true;
            else if (value == "off")
                out.base.refreshEnabled = false;
            else
                return err("refresh must be 'on' or 'off', got '" + value +
                           "'");
        } else if (key == "fairness") {
            if (value == "on")
                out.fairness = true;
            else if (value == "off")
                out.fairness = false;
            else
                return err("fairness must be 'on' or 'off', got '" +
                           value + "'");
        } else if (key == "backend") {
            out.hasBackend = true;
            if (value == "flat")
                out.backendKind = MemBackendKind::FlatDram;
            else if (value == "stacked")
                out.backendKind = MemBackendKind::StackedDram;
            else
                return err("backend must be 'flat' or 'stacked', got '" +
                           value + "'");
        } else if (key == "vaults") {
            axisErr = parseAxis<std::uint32_t>(
                value, "vault count",
                [](const std::string &n, std::uint32_t &o) {
                    std::uint64_t v = 0;
                    if (!parseUint(n, v) || v == 0 || !isPowerOf2(v))
                        return false;
                    o = static_cast<std::uint32_t>(v);
                    return true;
                },
                out.vaultCounts);
        } else if (key == "remap") {
            out.hasRemap = true;
            if (value == "on")
                out.base.remap.enabled = true;
            else if (value == "off")
                out.base.remap.enabled = false;
            else
                return err("remap must be 'on' or 'off', got '" + value +
                           "'");
        } else if (key == "tier") {
            out.hasTier = true;
            if (value == "on")
                out.base.tier.enabled = true;
            else if (value == "off")
                out.base.tier.enabled = false;
            else
                return err("tier must be 'on' or 'off', got '" + value +
                           "'");
        } else if (key == "tier_policy") {
            if (out.tierOnlyKey.empty())
                out.tierOnlyKey = key;
            if (!tryTierPolicyFromName(value, out.base.tier.policy))
                return err("tier_policy must be 'static_split', "
                           "'hotness_based', or 'alloy_cache', got '" +
                           value + "'");
        } else if (key == "tier_latency") {
            if (out.tierOnlyKey.empty())
                out.tierOnlyKey = key;
            std::uint64_t v = 0;
            if (!parseUint(value, v) || v > 1'000'000)
                return err("tier_latency needs a DRAM cycle count in "
                           "[0, 1000000], got '" +
                           value + "'");
            out.base.tier.slowLatencyDramCycles =
                static_cast<std::uint32_t>(v);
        } else if (key == "tier_bw") {
            if (out.tierOnlyKey.empty())
                out.tierOnlyKey = key;
            std::uint64_t v = 0;
            if (!parseUint(value, v) || v == 0 || v > 100)
                return err("tier_bw needs a percentage in [1, 100], "
                           "got '" +
                           value + "'");
            out.base.tier.slowBwPct = static_cast<std::uint32_t>(v);
        } else if (key == "tier_capacity_pct") {
            if (out.tierOnlyKey.empty())
                out.tierOnlyKey = key;
            std::uint64_t v = 0;
            if (!parseUint(value, v) || v == 0 || v > 100)
                return err("tier_capacity_pct needs a percentage in "
                           "[1, 100], got '" +
                           value + "'");
            out.base.tier.fastCapacityPct = static_cast<std::uint32_t>(v);
        } else if (key == "tier_hot_factor") {
            if (out.tierOnlyKey.empty())
                out.tierOnlyKey = key;
            char *end = nullptr;
            const double v = std::strtod(value.c_str(), &end);
            if (end != value.c_str() + value.size() || !(v > 0.0))
                return err("tier_hot_factor needs a number > 0, got '" +
                           value + "'");
            out.base.tier.hotFactor = v;
        } else if (key == "tier_migration_cycles") {
            if (out.tierOnlyKey.empty())
                out.tierOnlyKey = key;
            std::uint64_t v = 0;
            if (!parseUint(value, v) || v == 0 || v > 1'000'000)
                return err("tier_migration_cycles needs a DRAM cycle "
                           "count in [1, 1000000], got '" +
                           value + "'");
            out.base.tier.migrationCyclesPerRow =
                static_cast<std::uint32_t>(v);
        } else if (key == "monitor_sample") {
            if (out.tierOnlyKey.empty())
                out.tierOnlyKey = key;
            std::uint64_t v = 0;
            if (!parseUint(value, v) || v == 0 || v > 1'000'000)
                return err("monitor_sample needs an integer in "
                           "[1, 1000000], got '" +
                           value + "'");
            out.base.tier.monitorSampleEvery =
                static_cast<std::uint32_t>(v);
        } else if (key == "monitor_window") {
            if (out.tierOnlyKey.empty())
                out.tierOnlyKey = key;
            std::uint64_t v = 0;
            if (!parseUint(value, v) || v == 0 || v > 100'000'000)
                return err("monitor_window needs an integer in "
                           "[1, 100000000], got '" +
                           value + "'");
            out.base.tier.monitorWindowSamples =
                static_cast<std::uint32_t>(v);
        } else if (key == "monitor_min_regions") {
            if (out.tierOnlyKey.empty())
                out.tierOnlyKey = key;
            std::uint64_t v = 0;
            if (!parseUint(value, v) || v == 0 || v > 1'000'000)
                return err("monitor_min_regions needs an integer in "
                           "[1, 1000000], got '" +
                           value + "'");
            out.base.tier.monitorMinRegions =
                static_cast<std::uint32_t>(v);
        } else if (key == "monitor_max_regions") {
            if (out.tierOnlyKey.empty())
                out.tierOnlyKey = key;
            std::uint64_t v = 0;
            if (!parseUint(value, v) || v == 0 || v > 1'000'000)
                return err("monitor_max_regions needs an integer in "
                           "[1, 1000000], got '" +
                           value + "'");
            out.base.tier.monitorMaxRegions =
                static_cast<std::uint32_t>(v);
        } else {
            return err("unknown key '" + key + "'");
        }
        if (!axisErr.empty())
            return err(axisErr);
    }

    // `backend = stacked` with no device axis selects the stacked
    // reference part; `flat` is just an assertion over the sweep.
    if (out.hasBackend &&
        out.backendKind == MemBackendKind::StackedDram &&
        out.devices.empty()) {
        out.base.applyDevice(dramDeviceOrDie("HMC2-8GB"));
    }

    // Reconcile the backend key and the stacked-only keys against the
    // devices the sweep will actually build. Silently ignoring a remap
    // or vault knob on a flat part would masquerade as a null result,
    // so each mismatch is a named error.
    const std::vector<std::string> effDevs =
        out.devices.empty() ? std::vector<std::string>{out.base.deviceName}
                            : out.devices;
    for (const std::string &d : effDevs) {
        const bool stacked =
            dramDeviceOrDie(d).geometry.vaultsPerStack > 0;
        if (out.hasBackend &&
            out.backendKind == MemBackendKind::StackedDram && !stacked) {
            return "backend = stacked, but device '" + d +
                   "' is a flat JEDEC part";
        }
        if (out.hasBackend &&
            out.backendKind == MemBackendKind::FlatDram && stacked) {
            return "backend = flat, but device '" + d +
                   "' is a stacked part";
        }
        if (out.hasRemap && !stacked) {
            return "remap applies to the stacked backend only, but "
                   "device '" +
                   d + "' is a flat JEDEC part (set backend = stacked "
                       "or pick a stacked device)";
        }
        if (!out.vaultCounts.empty() && !stacked) {
            return "vaults applies to the stacked backend only, but "
                   "device '" +
                   d + "' is a flat JEDEC part (set backend = stacked "
                       "or pick a stacked device)";
        }
    }
    for (std::uint32_t vc : out.vaultCounts) {
        for (const std::string &d : effDevs) {
            const DramGeometry &g = dramDeviceOrDie(d).geometry;
            if (std::uint64_t(g.rowsPerBank) * g.vaultsPerStack % vc != 0)
                return "vault count " + std::to_string(vc) +
                       " cannot preserve device '" + d + "' capacity";
        }
    }

    // The tiered-only keys mirror the stacked-only ones: a tier_* or
    // monitor_* knob on a config that never composes the tiered
    // backend would be silently ignored, so it is a named error.
    if (!out.tierOnlyKey.empty() && !out.base.tier.enabled) {
        return "'" + out.tierOnlyKey +
               "' applies to the tiered backend only, but the spec "
               "does not enable it (put 'tier = on' first)";
    }
    if (out.base.tier.enabled &&
        out.base.tier.monitorMaxRegions < out.base.tier.monitorMinRegions) {
        return "monitor_max_regions (" +
               std::to_string(out.base.tier.monitorMaxRegions) +
               ") must be >= monitor_min_regions (" +
               std::to_string(out.base.tier.monitorMinRegions) + ")";
    }

    // Single-valued axes also shape the base config so a spec doubles
    // as a plain configuration file for one-off runs.
    if (out.devices.size() == 1)
        out.base.applyDevice(dramDeviceOrDie(out.devices.front()));
    if (out.schedulers.size() == 1)
        out.base.scheduler = out.schedulers.front();
    if (out.policies.size() == 1)
        out.base.pagePolicy = out.policies.front();
    if (out.mappings.size() == 1)
        out.base.mapping = out.mappings.front();
    if (out.groupMappings.size() == 1)
        out.base.bankGroupMapping = out.groupMappings.front();
    if (out.channelCounts.size() == 1)
        out.base.dram.channels = out.channelCounts.front();
    // (Guarded: with a multi-device stacked sweep the base config is
    // not any one device's, so the vault override applies per point.)
    if (out.vaultCounts.size() == 1 && out.base.dram.vaultsPerStack > 0)
        out.base.setVaults(out.vaultCounts.front());
    return {};
}

std::string
loadExperimentSpec(const std::string &path, ExperimentSpec &out)
{
    std::ifstream in(path);
    if (!in)
        return "cannot open spec file '" + path + "'";
    std::ostringstream text;
    text << in.rdbuf();
    return parseExperimentSpec(text.str(), out);
}

} // namespace mcsim
