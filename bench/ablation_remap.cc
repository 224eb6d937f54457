/**
 * @file
 * Dynamic-remap ablation on the stacked backend: Zipf-skewed
 * vault/bank traffic, remap off vs on.
 *
 * The driver is a ZipfTraffic that draws (vault, bank) slots from a
 * Zipfian distribution (item 0 hottest) and maps slot index i to
 * vault i / banks, bank i % banks — so the hottest slots all live in
 * vault 0, the next-hottest in vault 1, and so on. That concentrates
 * queue pressure on the low vaults exactly the way a skewed key-value
 * shard does, which is the traffic the remapper exists for: with
 * remapping on, the hot bank slots migrate toward cold vaults and the
 * tail read latency should come down.
 *
 * The JSON stamp holds the config, every MetricSet field of both
 * variants, the remap-on run's migration overhead and the p99
 * improvement; stdout gets the same bytes. The overhead is the row
 * copy time as a percentage of total per-vault DRAM cycles, a lower
 * bound: a migration only gates the swapped slots with availableAt
 * and moves no DRAM traffic.
 *
 * Usage: ablation_remap [--cycles N] [--theta T] [--json PATH]
 *        (defaults: 1M measured core cycles, theta 0.99,
 *        BENCH_remap.json)
 *
 * Both variants run as one ExperimentRunner batch, so CLOUDMC_FAST
 * shortens their windows by SimConfig::shortenWindows like every
 * other point (the CI smoke runs with CLOUDMC_FAST=50, which measures
 * 100k cycles); the stamp's measure_core_cycles is the window
 * measured. The improvement gate (exit 2 when remap-on p99 fails to
 * beat remap-off) arms only on full-length runs: a /50 smoke closes
 * too few remap windows for the gate to be meaningful there.
 */

#include <cstdio>
#include <string>

#include "bench_common.hh"
#include "dram/devices.hh"
#include "mem/address_mapping.hh"

using namespace mcsim;

namespace {

/** One variant's point: Zipf traffic over (vault, bank) slots. */
ExperimentRunner::Point
zipfVaultPoint(const SimConfig &cfg, double theta, double memProb)
{
    // The stacked backend's mapper view: one "channel" per vault.
    DramGeometry geom = cfg.dram;
    geom.channels = cfg.dram.channels * cfg.dram.vaultsPerStack;
    geom.ranksPerChannel = 1;
    geom.vaultsPerStack = 0;
    geom.validate();
    const AddressMapper mapper(geom, cfg.mapping, cfg.bankGroupMapping);
    const std::uint32_t banks = geom.banksPerRank;
    return bench::ZipfTraffic::point(
        cfg, std::uint64_t{geom.channels} * banks, theta, memProb,
        "ZipfVault", [geom, mapper, banks](std::uint64_t slot, Pcg32 &rng) {
            DramCoord c;
            c.channel = static_cast<std::uint32_t>(slot / banks);
            c.bank = static_cast<std::uint32_t>(slot % banks);
            // Random row/column within the slot: the footprint dwarfs
            // the cache hierarchy, so nearly every reference reaches
            // the vault's controller queue.
            c.row = rng.below64(geom.rowsPerBank);
            c.column = rng.below(geom.blocksPerRow());
            return mapper.encode(c);
        });
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t cycles = 1'000'000;
    double theta = 0.99;
    std::string jsonPath = "BENCH_remap.json";
    if (!bench::parseBenchFlags(
            argc, argv,
            {{"cycles", "a positive integer", bench::positiveUint(cycles)},
             {"theta", "a Zipf skew in [0, 1)", bench::zipfTheta(theta)},
             {"json", "a path", bench::text(jsonPath)}})) {
        return 1;
    }

    SimConfig cfg = SimConfig::baseline();
    cfg.applyDevice(dramDeviceOrDie("HMC2-8GB"));
    cfg.warmupCoreCycles = cycles / 4;
    cfg.measureCoreCycles = cycles;
    // A modest MLP window keeps the skewed vault queues under real
    // pressure; the remap window is short enough that a /50 smoke run
    // still closes a handful of windows.
    cfg.core.mlpWindow = 4;
    cfg.remap.windowAccesses = 2048;
    const double memProb = 0.25;

    SimConfig off = cfg;
    off.remap.enabled = false;
    SimConfig on = cfg;
    on.remap.enabled = true;

    // Keyless points: both variants always simulate, in one batch.
    ExperimentRunner runner("-");
    const auto m = runner.runAll({zipfVaultPoint(off, theta, memProb),
                                  zipfVaultPoint(on, theta, memProb)});
    const MetricSet &moff = m[0];
    const MetricSet &mon = m[1];

    const double p99ImprovementPct =
        moff.readLatencyP99 > 0.0
            ? 100.0 * (moff.readLatencyP99 - mon.readLatencyP99) /
                  moff.readLatencyP99
            : 0.0;
    const std::uint32_t vaults =
        cfg.dram.channels * cfg.dram.vaultsPerStack;
    const double dramCycles =
        static_cast<double>(mon.measuredCycles) * cfg.clocks.dramMhz /
        cfg.clocks.coreMhz;
    const double migrationDramCycles =
        static_cast<double>(mon.remapMigratedRows) *
        cfg.remap.migrationCyclesPerRow;
    const double migrationOverheadPct =
        dramCycles > 0.0
            ? 100.0 * migrationDramCycles / (dramCycles * vaults)
            : 0.0;

    if (!bench::writeStamp(
            jsonPath, "ablation_remap",
            {{"device", '"' + cfg.deviceName + '"'},
             {"vaults", formatMetric(std::uint64_t{vaults})},
             {"zipf_theta", formatMetric(theta)},
             {"measure_core_cycles", formatMetric(moff.measuredCycles)},
             {"remap_window_accesses",
              formatMetric(std::uint64_t{cfg.remap.windowAccesses})},
             {"remap_off", metricsJson(moff, 2)},
             {"remap_on", metricsJson(mon, 2)},
             {"migration_overhead_lower_bound_pct",
              formatMetric(migrationOverheadPct)},
             {"p99_improvement_pct", formatMetric(p99ImprovementPct)}})) {
        return 1;
    }

    // The ablation's reason to exist: on a full-length run the skewed
    // traffic must see its tail improve. Short smoke runs only check
    // that both variants execute.
    if (ExperimentRunner::fastDivisor() == 1 &&
        mon.readLatencyP99 >= moff.readLatencyP99) {
        std::fprintf(stderr,
                     "remap did not improve p99 (%.1f -> %.1f)\n",
                     moff.readLatencyP99, mon.readLatencyP99);
        return 2;
    }
    return 0;
}
