#include "experiment.hh"

#include <atomic>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/log.hh"
#include "common/worker_pool.hh"
#include "spec.hh"
#include "system.hh"

namespace mcsim {

ExperimentRunner::ExperimentRunner(std::string cachePath)
    : cachePath_(std::move(cachePath))
{
    if (cachePath_.empty()) {
        const char *env = std::getenv("CLOUDMC_CACHE");
        cachePath_ = env ? env : "cloudmc_results_cache.csv";
    }
    cachingEnabled_ = cachePath_ != "-";
    if (cachingEnabled_)
        loadCache();
}

namespace {

/** The positive integer in environment variable @p name, 0 when it is
 *  unset. A malformed, zero or above-@p max value is a named error:
 *  falling back would silently run a different sweep than asked. */
std::uint64_t
positiveEnv(const char *name, std::uint64_t max)
{
    const char *env = std::getenv(name);
    std::uint64_t v = 0;
    if (env && (!parseUint(env, v) || v == 0 || v > max))
        mc_fatal(name, " must be a positive integer, got '", env, "'");
    return v;
}

} // namespace

std::uint64_t
ExperimentRunner::fastDivisor()
{
    const std::uint64_t v = positiveEnv("CLOUDMC_FAST", UINT64_MAX);
    return v ? v : 1;
}

unsigned
ExperimentRunner::defaultThreads()
{
    if (const auto v = positiveEnv("CLOUDMC_THREADS", UINT_MAX))
        return static_cast<unsigned>(v);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

namespace {

/** FNV-1a accumulator over the config fields the readable key omits. */
class ParamsHasher
{
  public:
    ParamsHasher &
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xFF;
            h_ *= 1099511628211ull;
        }
        return *this;
    }

    ParamsHasher &
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        return u64(bits);
    }

    /** Every DramTimings field, in declaration order. */
    ParamsHasher &
    timings(const DramTimings &t)
    {
        for (const std::uint32_t v :
             {t.tCAS, t.tRCD, t.tRP, t.tRAS, t.tRC, t.tWR, t.tWTR, t.tWTRL,
              t.tRTP, t.tRRD, t.tRRDL, t.tFAW, t.tCWL, t.tBURST, t.tCCD,
              t.tCCDL, t.tRTW, t.tCS, t.tREFI, t.tRFC}) {
            u64(v);
        }
        return u64(t.perBankRefresh ? 1 : 0).u64(t.tRFCpb).u64(t.tTSV);
    }

    /** Every DramPowerParams field, in declaration order. */
    ParamsHasher &
    power(const DramPowerParams &p)
    {
        for (const double v :
             {p.vdd, p.idd0, p.idd2n, p.idd3n, p.idd4r, p.idd4w, p.idd5b}) {
            f64(v);
        }
        return u64(p.devicesPerRank);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/**
 * Hash of every tunable the readable key segments do not spell out
 * exactly: both measurement windows (the readable segment rounds them
 * to kilocycles), the full SchedulerParams set, page-policy-affecting
 * controller knobs, refresh, crossbar latency, the geometry/hierarchy/
 * core dimensions, and every DRAM timing and power parameter.
 */
std::uint64_t
paramsHash(const SimConfig &cfg)
{
    ParamsHasher h;
    h.u64(cfg.warmupCoreCycles).u64(cfg.measureCoreCycles);
    const SchedulerParams &sp = cfg.schedulerParams;
    h.u64(sp.parBs.batchingCap);
    h.u64(sp.atlas.quantumCycles)
        .f64(sp.atlas.alpha)
        .u64(sp.atlas.starvationCycles)
        .f64(sp.atlas.serviceUnitsPerCas);
    h.u64(sp.rl.numTables)
        .u64(sp.rl.tableSize)
        .f64(sp.rl.alpha)
        .f64(sp.rl.gamma)
        .f64(sp.rl.epsilon)
        .u64(sp.rl.exploreNoAction ? 1 : 0)
        .u64(sp.rl.starvationCycles)
        .u64(sp.rl.seed);
    h.u64(sp.tcm.quantumCycles)
        .u64(sp.tcm.shuffleCycles)
        .f64(sp.tcm.clusterFrac)
        .u64(sp.tcm.starvationCycles)
        .u64(sp.tcm.seed);
    h.f64(sp.stfm.alpha)
        .u64(sp.stfm.decayCycles)
        .f64(sp.stfm.decayFactor)
        .u64(sp.stfm.starvationCycles);
    h.u64(cfg.controller.writeDrainHigh)
        .u64(cfg.controller.writeDrainLow)
        .u64(cfg.controller.writeDrainIdle)
        .u64(cfg.controller.writeIdleDrainCycles)
        .u64(cfg.controller.forwardLatencyCycles);
    h.u64(cfg.xbarLatencyCycles).u64(cfg.refreshEnabled ? 1 : 0);
    h.u64(cfg.dram.ranksPerChannel)
        .u64(cfg.dram.banksPerRank)
        .u64(cfg.dram.rowsPerBank)
        .u64(cfg.dram.rowBufferBytes)
        .u64(cfg.dram.blockBytes);
    for (const CacheConfig &c :
         {cfg.hierarchy.l1i, cfg.hierarchy.l1d, cfg.hierarchy.l2}) {
        h.u64(c.sizeBytes).u64(c.ways).u64(c.blockBytes);
    }
    h.u64(cfg.hierarchy.l2Banks);
    h.u64(cfg.core.mlpWindow)
        .u64(cfg.core.storeBufferEntries)
        .u64(cfg.core.l2HitLatency)
        .u64(cfg.core.instrsPerFetchBlock);
    h.timings(cfg.timings).power(cfg.power);
    // The stacked and tier knobs are folded in only when they are in
    // play, so a sweep that leaves them dormant (e.g. a flat device
    // with a tuned remap struct) recalls one shared row.
    if (cfg.dram.vaultsPerStack > 0) {
        h.u64(cfg.dram.vaultsPerStack);
        h.u64(cfg.remap.enabled ? 1 : 0)
            .u64(cfg.remap.windowAccesses)
            .f64(cfg.remap.hotFactor)
            .u64(cfg.remap.migrationRows)
            .u64(cfg.remap.migrationCyclesPerRow);
    }
    if (cfg.tier.enabled) {
        h.u64(static_cast<std::uint64_t>(cfg.tier.policy))
            .u64(cfg.tier.slowLatencyDramCycles)
            .u64(cfg.tier.slowBwPct)
            .u64(cfg.tier.fastCapacityPct)
            .u64(cfg.tier.monitorSampleEvery)
            .u64(cfg.tier.monitorWindowSamples)
            .u64(cfg.tier.monitorMinRegions)
            .u64(cfg.tier.monitorMaxRegions)
            .f64(cfg.tier.hotFactor)
            .u64(cfg.tier.migrationCyclesPerRow);
    }
    return h.value();
}

/** The "|p<16 hex digits>" segment for @p cfg. */
std::string
paramsSegment(const SimConfig &cfg)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "|p%016llx",
                  static_cast<unsigned long long>(paramsHash(cfg)));
    return buf;
}

/** The "|bg=<groups><i|p>" segment for @p cfg: bank groups per rank
 *  plus the group-mapping option. On a single-group device the two
 *  placements are the same physical layout, so the segment normalizes
 *  to 'i' and a sweep over the group-mapping axis recalls one shared
 *  row instead of simulating the identical point twice. */
std::string
bankGroupSegment(const SimConfig &cfg)
{
    std::string seg = "|bg=";
    seg += std::to_string(cfg.dram.bankGroupsPerRank);
    const bool packed = cfg.dram.bankGroupsPerRank > 1 &&
                        cfg.bankGroupMapping ==
                            BankGroupMapping::GroupPacked;
    seg += packed ? 'p' : 'i';
    return seg;
}

/** The "|be=..." segment for @p cfg: "flat", or the stacked geometry
 *  ("st<vaults>v<banks>b", plus 'r' when dynamic remapping is on),
 *  with a "+t<fast-capacity-pct><policy initial>" suffix when the
 *  tiered composition is enabled, so a tiered run never aliases the
 *  plain fast-tier row. */
std::string
backendSegment(const SimConfig &cfg)
{
    std::string seg = "|be=";
    if (cfg.dram.vaultsPerStack > 0) {
        seg += "st";
        seg += std::to_string(cfg.dram.vaultsPerStack);
        seg += 'v';
        seg += std::to_string(cfg.dram.banksPerRank);
        seg += 'b';
        if (cfg.remap.enabled)
            seg += 'r';
    } else {
        seg += "flat";
    }
    if (cfg.tier.enabled) {
        seg += "+t";
        seg += std::to_string(cfg.tier.fastCapacityPct);
        seg += tierPolicyName(cfg.tier.policy)[0]; // s / h / a.
    }
    return seg;
}

} // namespace

std::string
ExperimentRunner::configKey(WorkloadId workload, const SimConfig &cfg)
{
    std::ostringstream key;
    key << workloadAcronym(workload) << '|'
        << schedulerKindName(cfg.scheduler) << '|'
        << pagePolicyKindName(cfg.pagePolicy) << '|'
        << mappingSchemeName(cfg.mapping) << '|' << cfg.dram.channels
        << "ch|" << cfg.numCores << "c|" << cfg.warmupCoreCycles / 1000
        << '+' << cfg.measureCoreCycles / 1000 << "k|s" << cfg.seed
        << "|q" << cfg.schedulerParams.atlas.quantumCycles / 1000 << "|f"
        << fastDivisor();
    if (cfg.coreMlpOverride)
        key << "|mlp" << cfg.coreMlpOverride;
    // The DRAM device and both clock frequencies, so two devices (or a
    // core-frequency sweep) never alias to one cached row.
    key << "|dev=" << cfg.deviceName << '@' << cfg.clocks.coreMhz
        << ':' << cfg.clocks.dramMhz;
    key << bankGroupSegment(cfg) << backendSegment(cfg);
    // A hash of everything else that shapes the run, then the model
    // version that produced the row.
    key << paramsSegment(cfg) << "|m" << kModelVersion;
    return key.str();
}

std::string
ExperimentRunner::pointKey(const Point &p)
{
    if (p.makeGenerator)
        return p.customKey; // Empty: never memoized.
    if (!p.customKey.empty())
        return p.customKey;
    std::string key = configKey(p.workload, p.cfg);
    if (p.presetCores) {
        key = "ALONE|" + std::to_string(p.presetCores) + "c|" + key;
    }
    return key;
}

namespace {

bool
parseValue(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && end == text.c_str() + text.size();
}

bool
parseValue(const std::string &text, std::uint64_t &out)
{
    return parseUint(text, out);
}

/** A ';'-joined list; empty text is an empty list. */
template <typename T>
bool
parseValue(const std::string &text, std::vector<T> &out)
{
    out.clear();
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t semi = text.find(';', start);
        T v{};
        if (!parseValue(text.substr(start, semi - start), v))
            return false;
        out.push_back(v);
        if (semi == std::string::npos)
            return true;
        start = semi + 1;
    }
    // Empty text, or a trailing ';' (an empty last item).
    return text.empty();
}

/** One cache row: the key, then ",name=value" for every MetricSet
 *  field in forEachMetricField order, newline-terminated. */
std::string
formatCacheRow(const std::string &key, const MetricSet &m)
{
    std::string row = key;
    forEachMetricField([&](const char *name, auto member) {
        row += ',';
        row += name;
        row += '=';
        row += formatMetric(m.*member);
    });
    row += '\n';
    return row;
}

/** Inverse of formatCacheRow (without the newline). Rejects a row with
 *  an empty key or any missing, unknown, reordered or unparseable
 *  field. */
bool
parseCacheRow(const std::string &line, std::string &key, MetricSet &m)
{
    std::size_t comma = line.find(',');
    if (comma == 0 || comma == std::string::npos)
        return false;
    key = line.substr(0, comma);
    m = MetricSet{};
    bool ok = true;
    forEachMetricField([&](const char *name, auto member) {
        if (!ok || comma == std::string::npos) {
            ok = false;
            return;
        }
        const std::size_t begin = comma + 1;
        comma = line.find(',', begin);
        const std::string field = line.substr(begin, comma - begin);
        const std::string prefix = std::string(name) + '=';
        ok = field.compare(0, prefix.size(), prefix) == 0 &&
             parseValue(field.substr(prefix.size()), m.*member);
    });
    return ok && comma == std::string::npos;
}

} // namespace

void
ExperimentRunner::loadCache()
{
    std::ifstream in(cachePath_);
    if (!in)
        return;
    std::string line;
    while (std::getline(in, line)) {
        std::string key;
        MetricSet m;
        if (parseCacheRow(line, key, m))
            cache_[key] = m;
    }
}

void
ExperimentRunner::appendToCache(const std::string &key, const MetricSet &m)
{
    const std::string line = formatCacheRow(key, m);

    // One fwrite on an O_APPEND stream keeps the record contiguous
    // even when several processes share the cache file.
    std::FILE *f = std::fopen(cachePath_.c_str(), "ae");
    if (!f)
        f = std::fopen(cachePath_.c_str(), "a");
    if (!f) {
        mc_warn("cannot append to results cache '", cachePath_, "'");
        return;
    }
    if (std::fwrite(line.data(), 1, line.size(), f) != line.size())
        mc_warn("short write to results cache '", cachePath_, "'");
    std::fclose(f);
}

MetricSet
ExperimentRunner::simulatePoint(const Point &p)
{
    SimConfig effective = p.cfg;
    effective.shortenWindows(fastDivisor());
    if (p.makeGenerator) {
        const auto generator = p.makeGenerator();
        mc_assert(generator && p.customCores >= 1,
                  "custom experiment point needs a generator and cores");
        System system(effective, *generator, p.customCores);
        return system.run();
    }
    WorkloadParams params = workloadPreset(p.workload);
    if (p.presetCores)
        params.cores = p.presetCores;
    System system(effective, params);
    return system.run();
}

void
ExperimentRunner::attachAloneBaseline(Point &p)
{
    mc_assert(!p.makeGenerator,
              "attachAloneBaseline handles preset points only; build "
              "custom points' baselines explicitly");
    Point::AloneBaseline b;
    b.firstCore = 0;
    b.numCores =
        p.presetCores ? p.presetCores : workloadPreset(p.workload).cores;
    b.run.workload = p.workload;
    b.run.cfg = p.cfg;
    b.run.presetCores = 1;
    p.baselines.clear();
    p.baselines.push_back(std::move(b));
}

ExperimentRunner::Point
ExperimentRunner::mixedFairnessPoint(const std::vector<MixPart> &parts,
                                     const SimConfig &cfg,
                                     Addr addressSpace,
                                     std::uint64_t seedSalt)
{
    mc_assert(!parts.empty(), "a mixed point needs at least one part");
    Point p;
    p.cfg = cfg;
    const std::vector<MixPart> partsCopy = parts;
    p.makeGenerator = [partsCopy, addressSpace, seedSalt] {
        return std::make_unique<MixedWorkload>(partsCopy, addressSpace,
                                               seedSalt);
    };

    // The key names every part (the generator's full identity) plus
    // the configuration fingerprint; the acronym slot of configKey()
    // is irrelevant for a custom generator, so reuse the first part's.
    std::ostringstream key;
    key << "MIX|";
    std::uint32_t firstCore = 0;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        key << (i ? "+" : "") << workloadAcronym(parts[i].workload) << ':'
            << parts[i].cores;

        Point::AloneBaseline b;
        b.firstCore = firstCore;
        b.numCores = parts[i].cores;
        b.run.workload = parts[i].workload;
        b.run.cfg = cfg;
        b.run.presetCores = parts[i].cores;
        p.baselines.push_back(std::move(b));
        firstCore += parts[i].cores;
    }
    key << "|as" << (addressSpace >> 20) << "m|salt" << seedSalt << '|'
        << configKey(parts.front().workload, cfg);
    p.customKey = key.str();
    p.customCores = firstCore;
    return p;
}

std::vector<MetricSet>
ExperimentRunner::runAll(const std::vector<Point> &points)
{
    return runAll(points, defaultThreads());
}

std::vector<MetricSet>
ExperimentRunner::runAll(const std::vector<Point> &points, unsigned threads)
{
    // Work list: the caller's points followed by every alone-run
    // baseline they carry. Baselines run through the same worker pool
    // and dedup/memoize like any other point: duplicate points in one
    // batch and repeated sweeps across invocations share baseline
    // simulations via the cache. (Each scheduler still runs its own
    // baseline — the alone run deliberately keeps the shared run's
    // full configuration, scheduler included.)
    struct WorkItem
    {
        const Point *point;
        /** Fairness point: its CSV row is appended after derivation so
         *  the on-disk cache carries the fairness columns. */
        bool deferAppend;
    };
    std::vector<WorkItem> work;
    work.reserve(points.size());
    std::vector<std::vector<std::size_t>> baselineAt(points.size());
    for (const Point &p : points)
        work.push_back({&p, !p.baselines.empty()});
    for (std::size_t i = 0; i < points.size(); ++i) {
        for (const Point::AloneBaseline &b : points[i].baselines) {
            mc_assert(b.run.baselines.empty(),
                      "baseline runs must not carry baselines");
            baselineAt[i].push_back(work.size());
            work.push_back({&b.run, false});
        }
    }

    std::vector<MetricSet> res(work.size());

    // One job per simulation that must actually run. With caching on,
    // duplicate uncached keys collapse into one job and the repeats
    // resolve from the memo cache afterwards — exactly what running
    // the points in order would do (first occurrence simulates, the
    // rest hit).
    struct Job
    {
        std::size_t workIdx;
        std::string key;
        bool deferAppend;
    };
    std::vector<Job> jobs;
    std::vector<std::size_t> jobOf(work.size(), SIZE_MAX);

    {
        std::lock_guard<std::mutex> lock(mu_);
        std::map<std::string, std::size_t> pendingByKey;
        for (std::size_t i = 0; i < work.size(); ++i) {
            std::string key = pointKey(*work[i].point);
            // Keyless custom points are never memoized: each runs.
            if (!cachingEnabled_ || key.empty()) {
                jobOf[i] = jobs.size();
                jobs.push_back({i, std::move(key), work[i].deferAppend});
                continue;
            }
            auto it = cache_.find(key);
            if (it != cache_.end()) {
                ++cacheHits_;
                res[i] = it->second;
                continue;
            }
            auto pending = pendingByKey.find(key);
            if (pending != pendingByKey.end()) {
                // Will hit the memo cache once its job completes.
                ++cacheHits_;
                jobOf[i] = pending->second;
                continue;
            }
            pendingByKey.emplace(key, jobs.size());
            jobOf[i] = jobs.size();
            jobs.push_back({i, std::move(key), work[i].deferAppend});
        }
    }

    if (!jobs.empty()) {
        const unsigned workers = static_cast<unsigned>(
            std::min<std::size_t>(jobs.size(), std::max(threads, 1u)));
        std::vector<MetricSet> jobResults(jobs.size());
        std::atomic<std::size_t> next{0};
        auto workerLoop = [&]() {
            while (true) {
                const std::size_t j =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (j >= jobs.size())
                    return;
                const Point &p = *work[jobs[j].workIdx].point;
                const MetricSet m = simulatePoint(p);
                jobResults[j] = m;

                std::lock_guard<std::mutex> lock(mu_);
                ++simulationsRun_;
                if (cachingEnabled_ && !jobs[j].key.empty()) {
                    cache_[jobs[j].key] = m;
                    if (!jobs[j].deferAppend)
                        appendToCache(jobs[j].key, m);
                }
            }
        };

        if (workers <= 1) {
            workerLoop();
        } else {
            WorkerPool pool(workers - 1);
            pool.run(workers, [&](unsigned) { workerLoop(); });
        }

        for (std::size_t i = 0; i < work.size(); ++i) {
            if (jobOf[i] != SIZE_MAX)
                res[i] = jobResults[jobOf[i]];
        }
    }

    // Derive every point's slowdown/fairness block from its baselines.
    // A point without baselines gets an empty block even when it
    // recalled a row that a fairness point enriched, so its metrics do
    // not depend on what ran before. Then persist each enriched row
    // (once per key: a row already carrying fairness columns is left
    // alone).
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        std::vector<AloneBaselineMetrics> alone;
        for (std::size_t j = 0; j < p.baselines.size(); ++j) {
            alone.push_back({p.baselines[j].firstCore,
                             p.baselines[j].numCores,
                             &res[baselineAt[i][j]]});
        }
        const bool derived = deriveFairnessMetrics(res[i], alone);
        if (alone.empty())
            continue;
        if (!derived) {
            mc_warn("alone-run baselines of point ", i,
                    " do not cover its cores; fairness metrics stay 0");
        }
        const std::string key = pointKey(p);
        if (cachingEnabled_ && !key.empty()) {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = cache_.find(key);
            if (it == cache_.end() || !it->second.hasFairness()) {
                cache_[key] = res[i];
                appendToCache(key, res[i]);
            }
        }
    }

    res.resize(points.size());
    return res;
}

} // namespace mcsim
