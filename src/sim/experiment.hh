/**
 * @file
 * Experiment harness: runs (workload, configuration) points and
 * memoizes the results in an on-disk CSV cache so every figure and
 * bench program can share one set of simulations.
 *
 * Independent points can be executed concurrently through runAll():
 * simulations are deterministic and self-contained, so a batch runs on
 * a thread pool with only the memo cache and the CSV append path
 * behind a mutex. Results are identical to the serial loop.
 */

#ifndef CLOUDMC_SIM_EXPERIMENT_HH
#define CLOUDMC_SIM_EXPERIMENT_HH

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "metrics.hh"
#include "sim_config.hh"
#include "workload/mixed.hh"
#include "workload/presets.hh"
#include "workload/workload.hh"

namespace mcsim {

/**
 * Version of the simulation model behind every cached row, carried in
 * each configKey() as "|m<N>". Bump it whenever a change alters any
 * simulated result (ExperimentCache.GoldenRowsPinModelVersion fails
 * then), so rows simulated by the old model are never recalled.
 */
constexpr unsigned kModelVersion = 2;

/** Memoizing simulation runner. */
class ExperimentRunner
{
  public:
    /** One simulation point of a sweep. */
    struct Point
    {
        Point() = default;
        Point(WorkloadId wl, const SimConfig &c) : workload(wl), cfg(c) {}

        WorkloadId workload = WorkloadId::DS;
        SimConfig cfg;

        /**
         * Custom-generator point (mixed workloads, traces): when set,
         * the simulation builds a fresh generator from the factory and
         * runs it on @p customCores cores instead of the preset. Such
         * points are memoized under @p customKey, or never cached when
         * it is empty — the key must then fingerprint the generator as
         * faithfully as configKey() fingerprints a preset.
         */
        std::function<std::unique_ptr<WorkloadGenerator>()> makeGenerator;
        std::uint32_t customCores = 0;
        std::string customKey;

        /**
         * When nonzero (and makeGenerator is unset), run the preset
         * with this core count instead of its calibrated one. The
         * alone-run baselines use 1 (single core, memory system to
         * itself) and the mix-part baselines use the part's core
         * count; the preset's IO/DMA substrate is kept as calibrated.
         * Memoized under a distinct "ALONE|<n>c|" fingerprint.
         */
        std::uint32_t presetCores = 0;

        struct AloneBaseline;
        /**
         * Alone-run baselines for slowdown/fairness accounting. When
         * non-empty, runAll() schedules each baseline run through the
         * same worker pool (memoized under its own fingerprint) and
         * derives perCoreSlowdown / weightedSpeedup / harmonicSpeedup
         * / maxSlowdown into this point's MetricSet. Baseline runs
         * themselves must not carry baselines.
         */
        std::vector<AloneBaseline> baselines;
    };

    /**
     * @param cachePath CSV cache location; empty selects the
     *        CLOUDMC_CACHE environment variable or, failing that,
     *        "cloudmc_results_cache.csv" in the working directory.
     *        Pass "-" to disable caching entirely.
     */
    explicit ExperimentRunner(std::string cachePath = "");

    /**
     * Run (or recall) a whole sweep, executing uncached points on up
     * to @p threads worker threads; a lone point is a one-element
     * batch. Each simulation shortens its windows by CLOUDMC_FAST
     * (SimConfig::shortenWindows). Points are independent, so the
     * returned metrics (ordered like @p points) are identical to
     * running the points one at a time in order, and the cacheHits() /
     * simulationsRun() counters advance exactly as that serial order
     * would advance them: duplicate uncached points simulate once and
     * count the repeats as hits.
     */
    std::vector<MetricSet> runAll(const std::vector<Point> &points,
                                  unsigned threads);

    /** runAll() with the defaultThreads() worker count. */
    std::vector<MetricSet> runAll(const std::vector<Point> &points);

    /**
     * Worker count used by the single-argument runAll():
     * CLOUDMC_THREADS when set, else std::thread::hardware_concurrency
     * (at least 1). A set but malformed or zero value exits with a
     * named error.
     */
    static unsigned defaultThreads();

    /** The CLOUDMC_FAST window divisor (1 when unset), applied to
     *  every simulation through SimConfig::shortenWindows. A set but
     *  malformed or zero value exits with a named error. */
    static std::uint64_t fastDivisor();

    /** Stable fingerprint of a (workload, config) point. */
    static std::string configKey(WorkloadId workload, const SimConfig &cfg);

    /**
     * The cache fingerprint runAll() memoizes @p p under: customKey
     * when set, the "ALONE|<n>c|"-prefixed preset key for presetCores
     * points, configKey() for plain preset points, and "" (never
     * cached) for keyless custom-generator points.
     */
    static std::string pointKey(const Point &p);

    /**
     * Attach the matching single-core alone-run baseline to a preset
     * point: one run of the same configuration with the preset scaled
     * to 1 core, covering every core of the shared run.
     */
    static void attachAloneBaseline(Point &p);

    /**
     * Build a memoizable MixedWorkload point, including one
     * part-isolated alone-run baseline per mix part (the part's preset
     * at the part's core count, covering the part's core range).
     */
    static Point mixedFairnessPoint(const std::vector<MixPart> &parts,
                                    const SimConfig &cfg,
                                    Addr addressSpace,
                                    std::uint64_t seedSalt = 0);

    std::uint64_t cacheHits() const { return cacheHits_; }
    std::uint64_t simulationsRun() const { return simulationsRun_; }

  private:
    void loadCache();
    /**
     * Append one record as a single flushed write so concurrent
     * processes sharing the cache file cannot interleave partial
     * lines. Caller holds mu_.
     */
    void appendToCache(const std::string &key, const MetricSet &m);
    static MetricSet simulatePoint(const Point &p);

    std::string cachePath_;
    bool cachingEnabled_ = true; ///< False for "-": never memoized.
    std::mutex mu_; ///< Guards cache_, the counters, and the CSV append.
    std::map<std::string, MetricSet> cache_;
    std::uint64_t cacheHits_ = 0;
    std::uint64_t simulationsRun_ = 0;
};

/** One alone-run baseline of a fairness point: the cores it covers
 *  plus the run whose per-core IPCs serve as their baseline. */
struct ExperimentRunner::Point::AloneBaseline
{
    std::uint32_t firstCore = 0;
    std::uint32_t numCores = 0;
    Point run;
};

} // namespace mcsim

#endif // CLOUDMC_SIM_EXPERIMENT_HH
