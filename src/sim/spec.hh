/**
 * @file
 * Declarative experiment specs: one dependency-free key=value text
 * file describes a full SimConfig plus a sweep matrix, so a device x
 * scheduler x workload study is a data file instead of a bench binary.
 *
 * Format: one `key = value` pair per line; `#` starts a comment;
 * blank lines are ignored. Sweep-axis keys accept comma-separated
 * lists and expand into a full cross product. Keys:
 *
 *   device    = DDR3-1600[, DDR4-2400, ...]   registry names
 *   scheduler = FR-FCFS[, ATLAS, ...]
 *   policy    = OpenAdaptive[, Close, ...]
 *   mapping   = RoRaBaCoCh[, PermBaXor, ...]
 *   group_mapping = GroupInterleaved[, GroupPacked]
 *                                             bank-group bit placement
 *                                             (short forms interleaved
 *                                             / packed accepted)
 *   channels  = 1[, 2, 4]                     powers of two
 *   workload  = WS[, DS, ...]                 paper acronyms
 *   core_mhz  = 2000                          scalar only
 *   warmup    = 2000000                       core cycles, scalar
 *   measure   = 8000000                       core cycles, scalar
 *   seed      = 1                             scalar
 *   refresh   = on | off                      scalar
 *   fairness  = on | off                      scalar; attach alone-run
 *                                             baselines to every point
 *   backend   = flat | stacked                scalar; asserts the memory
 *                                             backend every swept device
 *                                             composes. `stacked` with no
 *                                             device axis selects the
 *                                             HMC2-8GB registry entry.
 *   vaults    = 16[, 8, 4]                    stacked only: vault-count
 *                                             sweep (powers of two,
 *                                             capacity-preserving)
 *   remap     = on | off                      stacked only: dynamic
 *                                             hot-bank vault remapping
 *   tier      = on | off                      compose the device with a
 *                                             slow CXL/NVM-like second
 *                                             tier (TieredMemBackend)
 *   tier_policy = hotness_based               static_split |
 *                                             hotness_based | alloy_cache
 *   tier_latency = 96                         extra slow-tier read
 *                                             return latency, DRAM cycles
 *   tier_bw   = 50                            slow-tier service rate,
 *                                             percent of fast, [1,100]
 *   tier_capacity_pct = 50                    fast tier's share of the
 *                                             address space, [1,100]
 *   tier_hot_factor = 2.0                     promote when hot density >
 *                                             factor * cold density
 *   tier_migration_cycles = 64                DRAM cycles per migrated row
 *   monitor_sample = 4                        count every Nth access
 *   monitor_window = 2048                     counted samples per window
 *   monitor_min_regions = 16                  region-count floor
 *   monitor_max_regions = 256                 region-count ceiling
 *
 * The stacked-only keys (`vaults`, `remap`) are rejected with a named
 * error when any swept device is a flat JEDEC part, and the
 * tiered-only keys (`tier_*`, `monitor_*`) are rejected unless
 * `tier = on` is set — a silently ignored knob would masquerade as a
 * null result.
 *
 * Plural aliases (devices, schedulers, policies, mappings, workloads)
 * are accepted for readability. Every axis defaults to the baseline's
 * single value, so an empty file describes exactly one Table 2 run.
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
     *  compose this backend kind (parse fails otherwise). */
    bool hasBackend = false;
    MemBackendKind backendKind = MemBackendKind::FlatDram;
    /** The `remap` key was present (its value lives in
     *  base.remap.enabled); stacked-only, parse fails on flat. */
    bool hasRemap = false;
    /** The `tier` key was present (its value lives in
     *  base.tier.enabled). */
    bool hasTier = false;
    /** First tiered-only key seen (tier_policy, tier_latency, ...);
     *  parse fails when one is present without `tier = on`. */
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
