#include "spec.hh"

#include <cctype>
#include <cstdint>
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
    std::istringstream in(value);
    for (std::string item; std::getline(in, item, ',');) {
        item = trim(item);
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

/** Parse one list-valued axis through a per-item lookup; @p bad
 *  names a rejected item ("unknown scheduler"). */
template <typename T, typename Lookup>
std::string
listAxis(const std::string &value, const char *bad, Lookup lookup,
         std::vector<T> &out)
{
    std::vector<T> parsed;
    for (const std::string &item : splitList(value)) {
        T v{};
        if (!lookup(item, v))
            return std::string("has ") + bad + " '" + item + "'";
        parsed.push_back(v);
    }
    if (parsed.empty())
        return "is an empty list";
    out = std::move(parsed);
    return {};
}

bool
tryDeviceName(const std::string &name, std::string &out)
{
    if (!findDramDevice(name))
        return false;
    out = name;
    return true;
}

bool
tryPowerOf2(const std::string &text, std::uint32_t &out)
{
    std::uint64_t v = 0;
    if (!parseUint(text, v) || v == 0 || v > (1u << 31) || !isPowerOf2(v))
        return false;
    out = static_cast<std::uint32_t>(v);
    return true;
}

/** Parse an unsigned in [lo, hi] into @p out; @p what names the
 *  quantity in the error ("a percentage"). */
template <typename T>
std::string
uintIn(const std::string &value, std::uint64_t lo, std::uint64_t hi,
       const char *what, T &out)
{
    std::uint64_t v = 0;
    if (parseUint(value, v) && v >= lo && v <= hi) {
        out = static_cast<T>(v);
        return {};
    }
    const std::string range = hi == UINT64_MAX
                                  ? ""
                                  : " in [" + std::to_string(lo) + ", " +
                                        std::to_string(hi) + "]";
    return std::string("needs ") + what + range + ", got '" + value + "'";
}

std::string
onOff(const std::string &value, bool &out)
{
    if (value != "on" && value != "off")
        return "must be 'on' or 'off', got '" + value + "'";
    out = value == "on";
    return {};
}

/** Apply spec text line by line; errors carry the line number. */
std::string
applySpecText(const std::string &text, ExperimentSpec &spec)
{
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
        const std::string keyErr = applySpecKey(spec, key, value);
        if (!keyErr.empty())
            return err(keyErr);
    }
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
    // Empty axes collapse to the base configuration's single value
    // (vault count 0 keeps the device's registry count).
    const auto axis = [](auto list, auto fallback) {
        if (list.empty())
            list.push_back(fallback);
        return list;
    };
    const auto devs = axis(devices, base.deviceName);
    const auto scheds = axis(schedulers, base.scheduler);
    const auto pols = axis(policies, base.pagePolicy);
    const auto maps = axis(mappings, base.mapping);
    const auto gmaps = axis(groupMappings, base.bankGroupMapping);
    const auto chans = axis(channelCounts, base.dram.channels);
    const auto vaults = axis(vaultCounts, std::uint32_t{0});
    const auto wls = axis(workloads, WorkloadId::DS);

    const std::size_t n = pointCount();
    std::vector<ExperimentRunner::Point> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Point i's mixed-radix digits: workload fastest, device
        // slowest.
        std::size_t rest = i;
        const auto pick = [&rest](const auto &list) {
            const auto v = list[rest % list.size()];
            rest /= list.size();
            return v;
        };
        const WorkloadId wl = pick(wls);
        const std::uint32_t vc = pick(vaults);
        const std::uint32_t ch = pick(chans);
        const BankGroupMapping gmap = pick(gmaps);
        const MappingScheme map = pick(maps);
        const PagePolicyKind pol = pick(pols);
        const SchedulerKind sched = pick(scheds);
        SimConfig cfg = base;
        cfg.applyDevice(dramDeviceOrDie(pick(devs)));
        cfg.scheduler = sched;
        cfg.pagePolicy = pol;
        cfg.mapping = map;
        cfg.bankGroupMapping = gmap;
        cfg.dram.channels = ch;
        if (vc)
            cfg.setVaults(vc);
        ExperimentRunner::Point p(wl, cfg);
        if (fairness)
            ExperimentRunner::attachAloneBaseline(p);
        out.push_back(std::move(p));
    }
    return out;
}

// Each apply is a captureless generic lambda, (ExperimentSpec &s,
// const std::string &v), converted to the SpecKey::apply pointer.
const std::vector<SpecKey> kSpecKeys = {
    {"device", "devices", "NAME,...  DRAM registry devices (see --list)",
     SpecScope::Any, [](auto &s, auto &v) {
         return listAxis(v, "unknown device", tryDeviceName, s.devices);
     }},
    {"scheduler", "schedulers", "NAME,...  FR-FCFS, ATLAS, TCM, ...",
     SpecScope::Any, [](auto &s, auto &v) {
         return listAxis(v, "unknown scheduler", trySchedulerKindFromName,
                         s.schedulers);
     }},
    {"policy", "policies", "NAME,...  page policies: OpenAdaptive, ...",
     SpecScope::Any, [](auto &s, auto &v) {
         return listAxis(v, "unknown page policy",
                         tryPagePolicyKindFromName, s.policies);
     }},
    {"mapping", "mappings", "NAME,...  address mappings: RoRaBaCoCh, ...",
     SpecScope::Any, [](auto &s, auto &v) {
         return listAxis(v, "unknown mapping scheme",
                         tryMappingSchemeFromName, s.mappings);
     }},
    {"group_mapping", "group_mappings",
     "NAME,...  GroupInterleaved, GroupPacked", SpecScope::Any,
     [](auto &s, auto &v) {
         return listAxis(v, "unknown bank-group mapping",
                         tryBankGroupMappingFromName, s.groupMappings);
     }},
    {"channels", nullptr, "N,...  channel counts (powers of two)",
     SpecScope::Any, [](auto &s, auto &v) {
         return listAxis(v, "non-power-of-two channel count", tryPowerOf2,
                         s.channelCounts);
     }},
    {"workload", "workloads", "ACR,...  paper workload acronyms",
     SpecScope::Any, [](auto &s, auto &v) {
         return listAxis(v, "unknown workload", tryWorkloadFromName,
                         s.workloads);
     }},
    {"core_mhz", nullptr, "MHZ  core clock", SpecScope::Any,
     [](auto &s, auto &v) {
         std::uint32_t mhz = 0;
         std::string err = uintIn(v, 1, 1'000'000, "a clock in MHz", mhz);
         if (err.empty())
             s.base.setCoreMhz(mhz);
         return err;
     }},
    {"warmup", nullptr, "C  warmup core cycles", SpecScope::Any,
     [](auto &s, auto &v) {
         return uintIn(v, 0, UINT64_MAX, "a cycle count",
                       s.base.warmupCoreCycles);
     }},
    {"measure", nullptr, "C  measured core cycles", SpecScope::Any,
     [](auto &s, auto &v) {
         return uintIn(v, 1, UINT64_MAX, "a nonzero cycle count",
                       s.base.measureCoreCycles);
     }},
    {"seed", nullptr, "N  seed", SpecScope::Any,
     [](auto &s, auto &v) {
         return uintIn(v, 0, UINT64_MAX, "an integer", s.base.seed);
     }},
    {"refresh", nullptr, "on|off  DRAM refresh", SpecScope::Any,
     [](auto &s, auto &v) { return onOff(v, s.base.refreshEnabled); }},
    {"fairness", nullptr, "on|off  alone-run baselines, slowdown metrics",
     SpecScope::Any,
     [](auto &s, auto &v) { return onOff(v, s.fairness); }},
    {"backend", nullptr, "flat|stacked  required backend (stacked alone: "
                         "HMC2-8GB)",
     SpecScope::Any, [](auto &s, auto &v) -> std::string {
         if (v != "flat" && v != "stacked")
             return "must be 'flat' or 'stacked', got '" + v + "'";
         s.hasBackend = true;
         s.stackedBackend = v == "stacked";
         return {};
     }},
    {"vaults", nullptr, "N,...  vault counts (powers of two)",
     SpecScope::Stacked, [](auto &s, auto &v) {
         return listAxis(v, "non-power-of-two vault count", tryPowerOf2,
                         s.vaultCounts);
     }},
    {"remap", nullptr, "on|off  dynamic hot-bank vault remapping",
     SpecScope::Stacked,
     [](auto &s, auto &v) { return onOff(v, s.base.remap.enabled); }},
    {"tier", nullptr, "on|off  add a slow CXL/NVM-like second tier",
     SpecScope::Any,
     [](auto &s, auto &v) { return onOff(v, s.base.tier.enabled); }},
    {"tier_policy", nullptr, "NAME  static_split|hotness_based|alloy_cache",
     SpecScope::Tiered, [](auto &s, auto &v) -> std::string {
         if (tryTierPolicyFromName(v, s.base.tier.policy))
             return {};
         return "must be 'static_split', 'hotness_based', or "
                "'alloy_cache', got '" +
                v + "'";
     }},
    {"tier_latency", nullptr, "C  extra slow-tier read latency (DRAM)",
     SpecScope::Tiered, [](auto &s, auto &v) {
         return uintIn(v, 0, 1'000'000, "a DRAM cycle count",
                       s.base.tier.slowLatencyDramCycles);
     }},
    {"tier_bw", nullptr, "PCT  slow-tier service rate, % of fast",
     SpecScope::Tiered, [](auto &s, auto &v) {
         return uintIn(v, 1, 100, "a percentage", s.base.tier.slowBwPct);
     }},
    {"tier_capacity_pct", nullptr,
     "PCT  fast tier's share of the address space", SpecScope::Tiered,
     [](auto &s, auto &v) {
         return uintIn(v, 1, 100, "a percentage",
                       s.base.tier.fastCapacityPct);
     }},
    {"tier_hot_factor", nullptr,
     "X  promote when hot density > X * cold density", SpecScope::Tiered,
     [](auto &s, auto &v) -> std::string {
         char *end = nullptr;
         const double x = std::strtod(v.c_str(), &end);
         if (end != v.c_str() + v.size() || !(x > 0.0))
             return "needs a number > 0, got '" + v + "'";
         s.base.tier.hotFactor = x;
         return {};
     }},
    {"tier_migration_cycles", nullptr, "C  DRAM cycles per migrated row",
     SpecScope::Tiered, [](auto &s, auto &v) {
         return uintIn(v, 1, 1'000'000, "a DRAM cycle count",
                       s.base.tier.migrationCyclesPerRow);
     }},
    {"monitor_sample", nullptr, "N  count every Nth routed access",
     SpecScope::Tiered, [](auto &s, auto &v) {
         return uintIn(v, 1, 1'000'000, "an integer",
                       s.base.tier.monitorSampleEvery);
     }},
    {"monitor_window", nullptr, "N  counted samples per window",
     SpecScope::Tiered, [](auto &s, auto &v) {
         return uintIn(v, 1, 100'000'000, "an integer",
                       s.base.tier.monitorWindowSamples);
     }},
    {"monitor_min_regions", nullptr, "N  region-count floor",
     SpecScope::Tiered, [](auto &s, auto &v) {
         return uintIn(v, 1, 1'000'000, "an integer",
                       s.base.tier.monitorMinRegions);
     }},
    {"monitor_max_regions", nullptr, "N  region-count ceiling",
     SpecScope::Tiered, [](auto &s, auto &v) {
         return uintIn(v, 1, 1'000'000, "an integer",
                       s.base.tier.monitorMaxRegions);
     }},
};

const SpecKey *
findSpecKey(const std::string &key)
{
    for (const SpecKey &k : kSpecKeys) {
        if (key == k.name || (k.alias && key == k.alias))
            return &k;
    }
    return nullptr;
}

std::string
applySpecKey(ExperimentSpec &spec, const std::string &key,
             const std::string &value)
{
    const SpecKey *k = findSpecKey(key);
    if (!k)
        return "unknown key '" + key + "'";
    const std::string err = k->apply(spec, value);
    if (!err.empty())
        return key + " " + err;
    if (k->scope == SpecScope::Stacked && spec.stackedOnlyKey.empty())
        spec.stackedOnlyKey = k->name;
    if (k->scope == SpecScope::Tiered && spec.tierOnlyKey.empty())
        spec.tierOnlyKey = k->name;
    return {};
}

std::string
applySpecFile(const std::string &path, ExperimentSpec &spec)
{
    std::ifstream in(path);
    if (!in)
        return "cannot open spec file '" + path + "'";
    std::ostringstream text;
    text << in.rdbuf();
    return applySpecText(text.str(), spec);
}

std::string
finishSpec(ExperimentSpec &spec)
{
    // `backend = stacked` with no device axis selects the stacked
    // reference part; `flat` is just an assertion over the sweep.
    if (spec.hasBackend && spec.stackedBackend && spec.devices.empty()) {
        spec.base.applyDevice(dramDeviceOrDie("HMC2-8GB"));
    }

    // Reconcile the backend key and the stacked-only keys against the
    // devices the sweep will actually build. Silently ignoring a remap
    // or vault knob on a flat part would masquerade as a null result,
    // so each mismatch is a named error.
    const std::vector<std::string> effDevs =
        spec.devices.empty()
            ? std::vector<std::string>{spec.base.deviceName}
            : spec.devices;
    for (const std::string &d : effDevs) {
        const bool stacked =
            dramDeviceOrDie(d).geometry.vaultsPerStack > 0;
        if (spec.hasBackend && spec.stackedBackend && !stacked) {
            return "backend = stacked, but device '" + d +
                   "' is a flat JEDEC part";
        }
        if (spec.hasBackend && !spec.stackedBackend && stacked) {
            return "backend = flat, but device '" + d +
                   "' is a stacked part (a stacked device always "
                   "composes the stacked backend)";
        }
        if (!spec.stackedOnlyKey.empty() && !stacked) {
            return spec.stackedOnlyKey +
                   " applies to the stacked backend only, but device '" +
                   d + "' is a flat JEDEC part (set backend = stacked "
                       "or pick a stacked device)";
        }
    }
    for (std::uint32_t vc : spec.vaultCounts) {
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
    if (!spec.tierOnlyKey.empty() && !spec.base.tier.enabled) {
        return "'" + spec.tierOnlyKey +
               "' applies to the tiered backend only, but the spec "
               "does not enable it (put 'tier = on' first)";
    }
    const TierConfig &tier = spec.base.tier;
    if (tier.enabled && tier.monitorMaxRegions < tier.monitorMinRegions) {
        return "monitor_max_regions (" +
               std::to_string(tier.monitorMaxRegions) +
               ") must be >= monitor_min_regions (" +
               std::to_string(tier.monitorMinRegions) + ")";
    }

    // Single-valued axes also shape the base config so a spec doubles
    // as a plain configuration file for one-off runs.
    if (spec.devices.size() == 1)
        spec.base.applyDevice(dramDeviceOrDie(spec.devices.front()));
    if (spec.schedulers.size() == 1)
        spec.base.scheduler = spec.schedulers.front();
    if (spec.policies.size() == 1)
        spec.base.pagePolicy = spec.policies.front();
    if (spec.mappings.size() == 1)
        spec.base.mapping = spec.mappings.front();
    if (spec.groupMappings.size() == 1)
        spec.base.bankGroupMapping = spec.groupMappings.front();
    if (spec.channelCounts.size() == 1)
        spec.base.dram.channels = spec.channelCounts.front();
    // (Guarded: with a multi-device stacked sweep the base config is
    // not any one device's, so the vault override applies per point.)
    if (spec.vaultCounts.size() == 1 && spec.base.dram.vaultsPerStack > 0)
        spec.base.setVaults(spec.vaultCounts.front());
    return {};
}

std::string
parseExperimentSpec(const std::string &text, ExperimentSpec &out)
{
    out = ExperimentSpec{};
    const std::string err = applySpecText(text, out);
    return err.empty() ? finishSpec(out) : err;
}

std::string
loadExperimentSpec(const std::string &path, ExperimentSpec &out)
{
    out = ExperimentSpec{};
    const std::string err = applySpecFile(path, out);
    return err.empty() ? finishSpec(out) : err;
}

} // namespace mcsim
