#include "options.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "dram/devices.hh"

namespace mcsim {

namespace {

/** --fast D: shorten both windows by D (SimConfig::shortenWindows). */
std::string
applyFast(SimConfig &cfg, const std::string &value)
{
    std::uint64_t d = 0;
    if (!parseUint(value, d) || d == 0)
        return "needs a nonzero divisor, got '" + value + "'";
    cfg.shortenWindows(d);
    return {};
}

} // namespace

std::string
ExperimentOptions::parse(int argc, char **argv)
{
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::string next = i + 1 < argc ? argv[i + 1] : "";
        if (arg == "--help" || arg == "-h") {
            helpRequested = true;
        } else if (arg == "--list") {
            listRequested = true;
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--fairness" && next != "on" && next != "off") {
            spec.fairness = true; // Bare form of `--fairness on`.
        } else if (arg.rfind("--", 0) == 0) {
            // `--foo-bar V` is the spec line `foo_bar = V`.
            std::string key = arg.substr(2);
            std::replace(key.begin(), key.end(), '-', '_');
            const bool cliOnly = arg == "--config" || arg == "--fast";
            if (arg.find('_') != std::string::npos ||
                (!cliOnly && !findSpecKey(key))) {
                return "unknown flag '" + arg + "'";
            }
            if (i + 1 == argc)
                return arg + " needs a value";
            ++i;
            hasSpec = hasSpec || arg == "--config";
            const std::string err =
                arg == "--config" ? applySpecFile(next, spec)
                : arg == "--fast" ? applyFast(spec.base, next)
                                  : applySpecKey(spec, key, next);
            if (!err.empty())
                return arg + ": " + err;
        } else {
            // A bare acronym selects the workload; anything else stays
            // positional for the tool to interpret.
            WorkloadId w;
            if (tryWorkloadFromName(arg, w))
                spec.workloads = {w};
            else
                positional.push_back(arg);
        }
    }
    return finishSpec(spec);
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
        << " [workload] [--key value ...] [--config SPEC] [--fast D]\n"
        << "       [--csv] [--fairness] [--list] [--help]\n\n"
        << "Each spec-file line `key = value` is the flag `--key value`"
           " (underscores\nwritten as dashes; plural aliases too). Flags"
           " and --config files apply\nin order; the last write of a key"
           " wins. [stacked]: stacked devices only;\n[tier]: needs"
           " --tier on.\n\n";
    const auto row = [&out](const std::string &flag,
                            const std::string &help) {
        out << "  " << std::left << std::setw(23) << flag << ' ' << help
            << '\n';
    };
    for (const SpecKey &k : kSpecKeys) {
        std::string flag = std::string("--") + k.name;
        std::replace(flag.begin(), flag.end(), '_', '-');
        row(flag, std::string(k.help) +
                      (k.scope == SpecScope::Stacked ? " [stacked]"
                       : k.scope == SpecScope::Tiered ? " [tier]"
                                                      : ""));
    }
    row("--config FILE", "apply a spec file's lines at this position");
    row("--fast D", "divide warmup and measure by D (measure >= 100k if "
                    "D > 1)");
    row("--fairness", "same as --fairness on");
    row("--csv", "CSV output");
    row("--list", "list every legal name");
    row("--help, -h", "this text");
    out << '\n' << listText();
    return out.str();
}

} // namespace mcsim
