/**
 * @file
 * Declarative experiment specs: one dependency-free key=value text
 * file describes a full SimConfig plus a sweep matrix, so a device x
 * scheduler x workload study is a data file instead of a bench binary.
 *
 * Format: one `key = value` pair per line; `#` starts a comment;
 * blank lines are ignored. Sweep-axis keys accept comma-separated
 * lists and expand into a full cross product; plural aliases
 * (devices, schedulers, ...) are accepted for readability. Every axis
 * defaults to the baseline's single value, so an empty file describes
 * exactly one Table 2 run.
 *
 * Every key is declared once, in kSpecKeys (spec.cc): name, alias,
 * value syntax, scope and parser. `run_experiment --help` prints the
 * table, and each key doubles as the flag `--key-name value`. A
 * stacked-scope key is a named error when any swept device is a flat
 * JEDEC part, and a tiered-scope key is one unless `tier = on` is set
 * — a silently ignored knob would masquerade as a null result.
 */

#ifndef CLOUDMC_SIM_SPEC_HH
#define CLOUDMC_SIM_SPEC_HH

#include <string>
#include <vector>

#include "experiment.hh"
#include "sim_config.hh"
#include "workload/presets.hh"

namespace mcsim {

/** A parsed spec: the base configuration plus the sweep axes. */
struct ExperimentSpec
{
    SimConfig base;

    std::vector<std::string> devices;      ///< Registry names.
    std::vector<SchedulerKind> schedulers;
    std::vector<PagePolicyKind> policies;
    std::vector<MappingScheme> mappings;
    std::vector<BankGroupMapping> groupMappings;
    std::vector<std::uint32_t> channelCounts;
    std::vector<WorkloadId> workloads;
    /** Stacked-only vault-count sweep (the `vaults` key); empty runs
     *  every device at its registry vault count. */
    std::vector<std::uint32_t> vaultCounts;

    /** The `backend` key, when present: every swept device must
     *  compose this backend, stacked or flat (parse fails
     *  otherwise). */
    bool hasBackend = false;
    bool stackedBackend = false;
    /** First stacked-scope key seen (vaults, remap); finishSpec fails
     *  when one is present and a swept device is flat. */
    std::string stackedOnlyKey;
    /** First tiered-scope key seen (tier_policy, monitor_window, ...);
     *  finishSpec fails when one is present without `tier = on`. */
    std::string tierOnlyKey;

    /** Attach single-core alone-run baselines to every point so the
     *  sweep reports slowdown/fairness metrics (the `fairness` key). */
    bool fairness = false;

    /** Number of points the cross product expands to. */
    std::size_t pointCount() const;

    /**
     * Expand the cross product into runnable points (device-major,
     * workload-minor). Each point's SimConfig carries the device's
     * timings/power/geometry and the derived clock domains; with
     * `fairness` set each point also carries its alone-run baseline.
     */
    std::vector<ExperimentRunner::Point> points() const;
};

/** Where a key applies; outside its scope a key is a named error. */
enum class SpecScope
{
    Any,
    Stacked, ///< Every swept device must be a stacked part.
    Tiered,  ///< The spec must set `tier = on`.
};

/** One spec key, which is also the run_experiment flag `--name`
 *  (underscores written as dashes). */
struct SpecKey
{
    const char *name;
    const char *alias; ///< Plural form, or nullptr.
    const char *help;  ///< Value syntax, then meaning; one line.
    SpecScope scope;
    /** Parse @p value into the spec: "" on success, else the error
     *  (the caller prefixes the key). */
    std::string (*apply)(ExperimentSpec &, const std::string &value);
};

/** Every spec key, in --help order. */
extern const std::vector<SpecKey> kSpecKeys;

/** The kSpecKeys entry named (or aliased) @p key, or nullptr. */
const SpecKey *findSpecKey(const std::string &key);

/**
 * Apply one `key = value` pair onto @p spec (the last write of a key
 * wins) and record the first stacked- or tiered-scope key. Returns ""
 * or the error; cross-key checks wait for finishSpec().
 */
std::string applySpecKey(ExperimentSpec &spec, const std::string &key,
                         const std::string &value);

/** Apply a spec file's lines onto @p spec, in order, without
 *  resetting it; errors are "line N: ..." or an unopenable file. */
std::string applySpecFile(const std::string &path, ExperimentSpec &spec);

/**
 * Run once after the last key: reconcile backend, devices and the
 * scoped keys, check vault capacity and monitor bounds, and shape
 * `base` from the single-valued axes. Returns "" or the error.
 */
std::string finishSpec(ExperimentSpec &spec);

/**
 * Parse spec text. Returns an empty string on success, otherwise a
 * one-line "line N: ..." diagnostic. @p out is default-initialized
 * first and is only meaningful on success.
 */
std::string parseExperimentSpec(const std::string &text,
                                ExperimentSpec &out);

/** Load and parse a spec file; errors include unopenable files. */
std::string loadExperimentSpec(const std::string &path,
                               ExperimentSpec &out);

/** Parse a decimal unsigned integer (digits only, no sign or
 *  whitespace); false on anything else. */
bool parseUint(const std::string &text, std::uint64_t &out);

} // namespace mcsim

#endif // CLOUDMC_SIM_SPEC_HH
