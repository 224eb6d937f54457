/**
 * @file
 * Full-system configuration: the paper's Table 2 baseline plus every
 * knob the evaluation sweeps.
 */

#ifndef CLOUDMC_SIM_SIM_CONFIG_HH
#define CLOUDMC_SIM_SIM_CONFIG_HH

#include <algorithm>
#include <cstdint>
#include <string>

#include "cpu/core.hh"
#include "cpu/hierarchy.hh"
#include "dram/devices.hh"
#include "dram/dram_params.hh"
#include "mem/address_mapping.hh"
#include "mem/backend.hh"
#include "mem/factory.hh"
#include "mem/mem_controller.hh"

namespace mcsim {

/** Complete simulated-system configuration. */
struct SimConfig
{
    std::uint32_t numCores = 16; ///< Overridden by the workload for WF.

    HierarchyConfig hierarchy;
    CoreConfig core;

    /** Core/DRAM clock frequencies and the derived tick grid. Keep in
     *  step with `timings` (whose fields are cycles of clocks.dramMhz);
     *  applyDevice() and setCoreMhz() maintain the invariant. */
    ClockDomains clocks;
    /** Registry name of the DRAM device behind `timings`/`power`;
     *  purely descriptive, but part of the results-cache key. */
    std::string deviceName = "DDR3-1600";

    DramGeometry dram;
    DramTimings timings = DramTimings::ddr3_1600();
    DramPowerParams power = DramPowerParams::ddr3_1600();
    bool refreshEnabled = true;

    /** Dynamic vault/bank remapping knobs (stacked backend only; the
     *  spec loader rejects remap keys on a flat backend). */
    RemapConfig remap;
    /** Tiered-memory knobs. When tier.enabled, the device's backend
     *  (flat, or stacked when dram.vaultsPerStack > 0) is the fast
     *  tier and makeMemBackend() wraps it in a TieredMemBackend
     *  (slow CXL/NVM-like tier + DAMON-style monitor + placement
     *  policy). The spec loader rejects tier- and monitor-only keys
     *  unless `tier on` is set. */
    TierConfig tier;

    MappingScheme mapping = MappingScheme::RoRaBaCoCh;
    /** Placement of the bank-group bits on grouped devices (DDR4/
     *  DDR5): interleave groups at block granularity (streams pay
     *  tCCD_S) or keep the bank field packed (tCCD_L binds). No-op on
     *  single-group devices. */
    BankGroupMapping bankGroupMapping = BankGroupMapping::GroupInterleaved;
    SchedulerKind scheduler = SchedulerKind::FrFcfs;
    SchedulerParams schedulerParams;
    PagePolicyKind pagePolicy = PagePolicyKind::OpenAdaptive;
    MemControllerConfig controller;

    /** One-way crossbar/LLC-to-MC traversal, in core cycles. */
    std::uint32_t xbarLatencyCycles = 4;

    /**
     * Retired: must be 1; kept until the benchmark stops setting it.
     * A simulation always runs on one thread (System rejects any other
     * value), so the field is not part of the results-cache key.
     */
    std::uint32_t kernelThreads = 1;

    /**
     * When nonzero, overrides the workload preset's MLP window (the
     * outstanding-load-miss budget per core). The paper's Section 5
     * hypothesizes that more aggressive (out-of-order-like) cores
     * would raise MLP and change the multi-channel conclusion;
     * bench/ablation_ooo sweeps this knob to test that.
     */
    std::uint32_t coreMlpOverride = 0;

    std::uint64_t warmupCoreCycles = 2'000'000;
    std::uint64_t measureCoreCycles = 8'000'000;

    std::uint64_t seed = 1;

    /**
     * The paper's Table 2 baseline: 16 in-order cores at 2 GHz, 32 KB
     * 2-way L1s, 4 MB 16-way 4-bank shared L2, FR-FCFS, open-adaptive
     * paging, 1 channel of DDR3-1600 with 2 ranks x 8 banks and 8 KB
     * rows, RoRaBaCoCh mapping.
     */
    static SimConfig
    baseline()
    {
        return SimConfig{};
    }

    /**
     * Select a DRAM device from the registry: timings, power, geometry
     * defaults, and the DRAM-side clock all follow the device; the
     * channel count and core frequency are preserved.
     */
    void
    applyDevice(const DramDevice &dev)
    {
        deviceName = dev.name;
        timings = dev.timings;
        power = dev.power;
        const std::uint32_t channels = dram.channels;
        dram = dev.geometry;
        dram.channels = channels;
        clocks = ClockDomains::fromMhz(clocks.coreMhz, dev.busMhz);
    }

    /**
     * Override a stacked device's vault count while preserving its
     * capacity (rows per bank scale inversely), so the fixed IO/DMA
     * buffer placement and workload footprints are identical across a
     * vault-count sweep. Both counts must be powers of two.
     */
    void
    setVaults(std::uint32_t vaults)
    {
        mc_assert(dram.vaultsPerStack > 0 && vaults > 0 &&
                      isPowerOf2(vaults),
                  "setVaults needs a stacked device and a power-of-two "
                  "vault count");
        dram.rowsPerBank = dram.rowsPerBank * dram.vaultsPerStack / vaults;
        dram.vaultsPerStack = vaults;
    }

    /**
     * The window rule of `--fast D` and CLOUDMC_FAST=D: divide both
     * windows by @p divisor, flooring the measured window at 100k core
     * cycles. A divisor of 1 leaves both windows untouched.
     */
    void
    shortenWindows(std::uint64_t divisor)
    {
        mc_assert(divisor >= 1, "window divisor must be positive");
        if (divisor == 1)
            return;
        warmupCoreCycles /= divisor;
        measureCoreCycles =
            std::max<std::uint64_t>(measureCoreCycles / divisor, 100'000);
    }

    /** Change the core frequency, re-deriving the tick grid. */
    void
    setCoreMhz(std::uint32_t coreMhz)
    {
        clocks = ClockDomains::fromMhz(coreMhz, clocks.dramMhz);
    }
};

} // namespace mcsim

#endif // CLOUDMC_SIM_SIM_CONFIG_HH
