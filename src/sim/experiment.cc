#include "experiment.hh"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/log.hh"
#include "common/worker_pool.hh"
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

std::uint64_t
ExperimentRunner::fastDivisor()
{
    const char *env = std::getenv("CLOUDMC_FAST");
    if (!env)
        return 1;
    const auto v = std::strtoull(env, nullptr, 10);
    return v >= 1 ? v : 1;
}

unsigned
ExperimentRunner::defaultThreads()
{
    if (const char *env = std::getenv("CLOUDMC_THREADS")) {
        const auto v = std::strtoul(env, nullptr, 10);
        if (v >= 1)
            return static_cast<unsigned>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

namespace {

/** Key segment carrying the device + clock fingerprint (schema v3). */
constexpr const char *kDeviceKeyTag = "|dev=";

/** Key segment carrying the bank-group fingerprint (schema v5):
 *  groups per rank plus the group-mapping option. */
constexpr const char *kBankGroupKeyTag = "|bg=";

/** Key segment carrying the memory-backend fingerprint (schema v6):
 *  "flat", or the stacked geometry ("st<vaults>v<banks>b", plus a
 *  trailing 'r' when dynamic remapping is on). */
constexpr const char *kBackendKeyTag = "|be=";

/** Prefix of the full-parameter hash segment (schema v4). */
constexpr const char *kParamsKeyTag = "|p";
constexpr std::size_t kParamsHashDigits = 16;

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
 * Hash of every tunable the readable key segments do not spell out:
 * the full SchedulerParams set (the old key fingerprinted only the
 * ATLAS quantum, so STFM-alpha or TCM sweeps aliased to one row),
 * page-policy-affecting controller knobs, refresh, crossbar latency,
 * and the geometry/hierarchy/core dimensions, DRAM timings and power
 * a hand-modified config could change without changing the device
 * name.
 */
std::uint64_t
paramsHash(const SimConfig &cfg)
{
    ParamsHasher h;
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
    // Schema v6 extends the hash *conditionally*: the stacked-backend
    // and TSV fields are folded in only when they are in play, so every
    // flat-backend hash is byte-identical to the v5 hash and the v5
    // cache rows stay recallable without a migration pass.
    if (cfg.timings.tTSV != 0)
        h.u64(cfg.timings.tTSV);
    // Hand-tuned timings or power (anything that differs from the
    // named registry device) are folded in whole; stock devices add
    // nothing, so their keys stay byte-identical to the v5-v7 keys.
    const DramDevice *dev = findDramDevice(cfg.deviceName);
    if (!dev || ParamsHasher{}.timings(cfg.timings).value() !=
                    ParamsHasher{}.timings(dev->timings).value()) {
        h.timings(cfg.timings);
    }
    if (!dev || ParamsHasher{}.power(cfg.power).value() !=
                    ParamsHasher{}.power(dev->power).value()) {
        h.power(cfg.power);
    }
    if (cfg.backend == MemBackendKind::StackedDram) {
        h.u64(cfg.dram.vaultsPerStack);
        h.u64(cfg.remap.enabled ? 1 : 0)
            .u64(cfg.remap.windowAccesses)
            .f64(cfg.remap.hotFactor)
            .u64(cfg.remap.migrationRows)
            .u64(cfg.remap.migrationCyclesPerRow);
    }
    // Schema v7: the tiered-memory knobs, again folded in only when
    // the tier is enabled so every non-tiered hash (and therefore every
    // v6 key) stays byte-identical.
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
    char buf[2 + kParamsHashDigits + 1];
    std::snprintf(buf, sizeof(buf), "%s%016llx", kParamsKeyTag,
                  static_cast<unsigned long long>(paramsHash(cfg)));
    return buf;
}

/** The "|bg=<groups><i|p>" segment for @p cfg (schema v5). On a
 *  single-group device the two placements are the same physical
 *  layout, so the segment normalizes to 'i' and a sweep over the
 *  group-mapping axis recalls one shared row instead of simulating
 *  the identical point twice. */
std::string
bankGroupSegment(const SimConfig &cfg)
{
    std::string seg = kBankGroupKeyTag;
    seg += std::to_string(cfg.dram.bankGroupsPerRank);
    const bool packed = cfg.dram.bankGroupsPerRank > 1 &&
                        cfg.bankGroupMapping ==
                            BankGroupMapping::GroupPacked;
    seg += packed ? 'p' : 'i';
    return seg;
}

/** The "|be=..." segment for @p cfg (schema v6; schema v7 appends a
 *  "+t<fast-capacity-pct><policy initial>" suffix when the tiered
 *  composition is enabled, so a tiered run never aliases the plain
 *  fast-tier row and non-tiered keys stay byte-identical to v6). */
std::string
backendSegment(const SimConfig &cfg)
{
    std::string seg = kBackendKeyTag;
    if (cfg.backend == MemBackendKind::StackedDram) {
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

/** Does @p key already end with a params-hash segment? */
bool
hasParamsSegment(const std::string &key)
{
    const std::size_t segLen = 2 + kParamsHashDigits;
    if (key.size() < segLen)
        return false;
    const std::size_t at = key.size() - segLen;
    if (key.compare(at, 2, kParamsKeyTag) != 0)
        return false;
    for (std::size_t i = at + 2; i < key.size(); ++i) {
        const char c = key[i];
        if (!std::isxdigit(static_cast<unsigned char>(c)) ||
            std::isupper(static_cast<unsigned char>(c))) {
            return false;
        }
    }
    return true;
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
    // Schema v3: rows are keyed by the DRAM device and both clock
    // frequencies, so two devices (or a core-frequency sweep) can
    // never alias to one cached row.
    key << kDeviceKeyTag << cfg.deviceName << '@' << cfg.clocks.coreMhz
        << ':' << cfg.clocks.dramMhz;
    // Schema v5: the bank-group axis (groups per rank + the group-
    // mapping option), so a grouped-timing run never aliases a row
    // simulated under the old single-tCCD model or the other mapping.
    key << bankGroupSegment(cfg);
    // Schema v6: the memory-backend axis (flat vs. stacked vault
    // geometry, with the remap flag), so a stacked-backend run never
    // aliases a row simulated under the flat JEDEC model.
    key << backendSegment(cfg);
    // Schema v4: a hash of the full parameter set, so sweeps over any
    // scheduler/controller/geometry tunable the readable segments omit
    // can never alias either.
    key << paramsSegment(cfg);
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

/** The v1 record's 15 numeric CSV columns. */
constexpr std::size_t kCacheFieldsV1 = 15;
/** Schema v2 appends the read-latency percentiles (P50/P95/P99).
 *  Schema v3 keeps the v2 columns and extends the *key* with the
 *  device/clock segment; v1/v2 rows are migrated on load by tagging
 *  their keys with the only device those schemas could simulate (the
 *  DDR3-1600 baseline at stock clocks). */
constexpr std::size_t kCacheFieldsV2 = 18;
/** Schema v4 appends the fairness scalars (weighted speedup, harmonic
 *  speedup, max slowdown) plus two ';'-joined per-core lists (IPC and
 *  slowdown, either possibly empty), and extends the *key* with the
 *  full-parameter hash segment; older keys are migrated on load by
 *  tagging them with the baseline parameter set (the only one the
 *  benches swept before the hash existed — rows written by older
 *  builds with hand-tuned parameters were aliased then and stay
 *  indistinguishable, so they migrate as baseline rows too). */
constexpr std::size_t kCacheScalarsV4 = 21;
constexpr std::size_t kCacheFieldsV4 = 23;
/** Schema v5 appends the same-bank-group CAS percentage column and
 *  extends the *key* with the bank-group segment; older keys are
 *  migrated on load by tagging them with the single-group fingerprint
 *  ("|bg=1i") — the only timing model those schemas could simulate. */
constexpr std::size_t kCacheFieldsV5 = 24;
/** Schema v6 appends the stacked-backend columns (vault-queue
 *  imbalance, the two remap-migration counters, and the ';'-joined
 *  per-vault read-queue list — all zeros/empty on flat rows) and
 *  extends the *key* with the backend segment; older keys are migrated
 *  on load by tagging them with the flat fingerprint ("|be=flat") —
 *  the only backend those schemas could simulate. */
constexpr std::size_t kCacheFieldsV6 = 28;
/** Schema v7 appends the tiered-backend columns (fast-tier hit
 *  percent, slow-tier read-latency P99, and the two tier-migration
 *  counters — all zeros on non-tiered rows) and extends the *key*'s
 *  backend segment with a "+t..." suffix on tiered configs only, so
 *  v6 keys and rows need no migration at all: a v6 line parses as a
 *  v7 row whose tier columns are zero. */
constexpr std::size_t kCacheFieldsV7 = 32;

/** Parse a ';'-joined list of doubles; empty text is an empty list. */
bool
parseDoubleList(const std::string &text, std::vector<double> &out)
{
    out.clear();
    if (text.empty())
        return true;
    std::size_t start = 0;
    while (true) {
        const std::size_t semi = text.find(';', start);
        const std::string item =
            semi == std::string::npos
                ? text.substr(start)
                : text.substr(start, semi - start);
        char *end = nullptr;
        const double v = std::strtod(item.c_str(), &end);
        if (item.empty() || end != item.c_str() + item.size())
            return false;
        out.push_back(v);
        if (semi == std::string::npos)
            return true;
        start = semi + 1;
    }
}

/**
 * Split one CSV line; accepts key + 15 fields (v1, written before the
 * percentiles were persisted — they load as 0), key + 18 fields
 * (v2/v3), key + 23 fields (v4, with the fairness columns), key + 24
 * fields (v5), key + 28 fields (v6, with the stacked-backend
 * columns), or key + 32 fields (v7, with the tiered-backend columns).
 */
bool
parseCacheLine(const std::string &line, std::string &key, MetricSet &m)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
        const std::size_t comma = line.find(',', start);
        if (comma == std::string::npos) {
            fields.push_back(line.substr(start));
            break;
        }
        fields.push_back(line.substr(start, comma - start));
        start = comma + 1;
    }
    if ((fields.size() != kCacheFieldsV1 + 1 &&
         fields.size() != kCacheFieldsV2 + 1 &&
         fields.size() != kCacheFieldsV4 + 1 &&
         fields.size() != kCacheFieldsV5 + 1 &&
         fields.size() != kCacheFieldsV6 + 1 &&
         fields.size() != kCacheFieldsV7 + 1) ||
        fields[0].empty()) {
        return false;
    }
    const std::size_t numFields = fields.size() - 1;
    const std::size_t numScalars =
        numFields > kCacheScalarsV4 ? kCacheScalarsV4 : numFields;

    double v[kCacheScalarsV4] = {};
    for (std::size_t i = 0; i < numScalars; ++i) {
        const std::string &f = fields[i + 1];
        char *end = nullptr;
        v[i] = std::strtod(f.c_str(), &end);
        if (f.empty() || end != f.c_str() + f.size())
            return false;
    }

    key = fields[0];
    m = MetricSet{};
    m.userIpc = v[0];
    m.avgReadLatency = v[1];
    m.rowHitRatePct = v[2];
    m.l2Mpki = v[3];
    m.avgReadQueue = v[4];
    m.avgWriteQueue = v[5];
    m.bwUtilPct = v[6];
    m.singleAccessPct = v[7];
    m.committedInstructions = static_cast<std::uint64_t>(v[8]);
    m.measuredCycles = static_cast<std::uint64_t>(v[9]);
    m.memReads = static_cast<std::uint64_t>(v[10]);
    m.memWrites = static_cast<std::uint64_t>(v[11]);
    m.ipcDisparity = v[12];
    m.dramEnergyNj = v[13];
    m.dramAvgPowerMw = v[14];
    if (numFields >= kCacheFieldsV2) {
        m.readLatencyP50 = v[15];
        m.readLatencyP95 = v[16];
        m.readLatencyP99 = v[17];
    }
    if (numFields >= kCacheFieldsV4) {
        m.weightedSpeedup = v[18];
        m.harmonicSpeedup = v[19];
        m.maxSlowdown = v[20];
        if (!parseDoubleList(fields[1 + 21], m.perCoreIpc) ||
            !parseDoubleList(fields[1 + 22], m.perCoreSlowdown)) {
            return false;
        }
    }
    if (numFields >= kCacheFieldsV5) {
        const std::string &f = fields[1 + 23];
        char *end = nullptr;
        m.sameGroupCasPct = std::strtod(f.c_str(), &end);
        if (f.empty() || end != f.c_str() + f.size())
            return false;
    }
    if (numFields >= kCacheFieldsV6) {
        double scalars[3] = {};
        for (std::size_t i = 0; i < 3; ++i) {
            const std::string &f = fields[1 + 24 + i];
            char *end = nullptr;
            scalars[i] = std::strtod(f.c_str(), &end);
            if (f.empty() || end != f.c_str() + f.size())
                return false;
        }
        m.vaultQueueImbalance = scalars[0];
        m.remapMigrations = static_cast<std::uint64_t>(scalars[1]);
        m.remapMigratedRows = static_cast<std::uint64_t>(scalars[2]);
        if (!parseDoubleList(fields[1 + 27], m.perVaultReadQueue))
            return false;
    }
    if (numFields >= kCacheFieldsV7) {
        double scalars[4] = {};
        for (std::size_t i = 0; i < 4; ++i) {
            const std::string &f = fields[1 + 28 + i];
            char *end = nullptr;
            scalars[i] = std::strtod(f.c_str(), &end);
            if (f.empty() || end != f.c_str() + f.size())
                return false;
        }
        m.fastTierHitPct = scalars[0];
        m.slowTierReadLatencyP99 = scalars[1];
        m.tierMigrations = static_cast<std::uint64_t>(scalars[2]);
        m.tierMigratedRows = static_cast<std::uint64_t>(scalars[3]);
    }
    return true;
}

/** Join doubles with ';' for one CSV field. */
std::string
joinDoubleList(const std::vector<double> &values)
{
    std::ostringstream out;
    for (std::size_t i = 0; i < values.size(); ++i)
        out << (i ? ";" : "") << values[i];
    return out.str();
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
        if (!parseCacheLine(line, key, m))
            continue;
        // Schema v1/v2 keys predate the device axis; everything they
        // recorded ran the DDR3-1600 baseline at stock clocks, so tag
        // them with that fingerprint instead of dropping the rows.
        if (key.find(kDeviceKeyTag) == std::string::npos)
            key += std::string(kDeviceKeyTag) + "DDR3-1600@2000:800";
        // Schema v1-v4 keys predate the bank-group axis; everything
        // they recorded ran the single-tCCD model, i.e. one bank group
        // under the (then-only) interleaved placement. Insert that
        // fingerprint before any trailing params-hash segment so the
        // migrated key matches configKey()'s segment order.
        if (key.find(kBankGroupKeyTag) == std::string::npos) {
            const std::string bgSeg =
                std::string(kBankGroupKeyTag) + "1i";
            if (hasParamsSegment(key))
                key.insert(key.size() - (2 + kParamsHashDigits), bgSeg);
            else
                key += bgSeg;
        }
        // Schema v1-v5 keys predate the backend axis; everything they
        // recorded ran the flat JEDEC model (the stacked backend did
        // not exist). Insert that fingerprint before any trailing
        // params-hash segment, matching configKey()'s segment order.
        if (key.find(kBackendKeyTag) == std::string::npos) {
            const std::string beSeg = std::string(kBackendKeyTag) + "flat";
            if (hasParamsSegment(key))
                key.insert(key.size() - (2 + kParamsHashDigits), beSeg);
            else
                key += beSeg;
        }
        // Schema v1-v3 keys predate the full-parameter hash; the only
        // parameter set they could name unambiguously is the baseline
        // one, so migrate them to its fingerprint.
        if (!hasParamsSegment(key)) {
            static const std::string baselineSeg =
                paramsSegment(SimConfig::baseline());
            key += baselineSeg;
        }
        cache_[key] = m;
    }
}

void
ExperimentRunner::appendToCache(const std::string &key, const MetricSet &m)
{
    std::ostringstream rec;
    rec << key << ',' << m.userIpc << ',' << m.avgReadLatency << ','
        << m.rowHitRatePct << ',' << m.l2Mpki << ',' << m.avgReadQueue
        << ',' << m.avgWriteQueue << ',' << m.bwUtilPct << ','
        << m.singleAccessPct << ',' << m.committedInstructions << ','
        << m.measuredCycles << ',' << m.memReads << ',' << m.memWrites
        << ',' << m.ipcDisparity << ',' << m.dramEnergyNj << ','
        << m.dramAvgPowerMw << ',' << m.readLatencyP50 << ','
        << m.readLatencyP95 << ',' << m.readLatencyP99 << ','
        << m.weightedSpeedup << ',' << m.harmonicSpeedup << ','
        << m.maxSlowdown << ',' << joinDoubleList(m.perCoreIpc) << ','
        << joinDoubleList(m.perCoreSlowdown) << ',' << m.sameGroupCasPct
        << ',' << m.vaultQueueImbalance << ',' << m.remapMigrations
        << ',' << m.remapMigratedRows << ','
        << joinDoubleList(m.perVaultReadQueue) << ','
        << m.fastTierHitPct << ',' << m.slowTierReadLatencyP99 << ','
        << m.tierMigrations << ',' << m.tierMigratedRows << '\n';
    const std::string line = rec.str();

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
ExperimentRunner::simulate(WorkloadId workload, const SimConfig &cfg,
                           std::uint32_t presetCores)
{
    SimConfig effective = cfg;
    const std::uint64_t divisor = fastDivisor();
    effective.warmupCoreCycles = cfg.warmupCoreCycles / divisor;
    effective.measureCoreCycles =
        std::max<std::uint64_t>(cfg.measureCoreCycles / divisor, 100'000);

    WorkloadParams params = workloadPreset(workload);
    if (presetCores)
        params.cores = presetCores;
    System system(effective, params);
    return system.run();
}

MetricSet
ExperimentRunner::simulatePoint(const Point &p)
{
    if (!p.makeGenerator)
        return simulate(p.workload, p.cfg, p.presetCores);

    SimConfig effective = p.cfg;
    const std::uint64_t divisor = fastDivisor();
    effective.warmupCoreCycles = p.cfg.warmupCoreCycles / divisor;
    effective.measureCoreCycles = std::max<std::uint64_t>(
        p.cfg.measureCoreCycles / divisor, 100'000);

    const auto generator = p.makeGenerator();
    mc_assert(generator && p.customCores >= 1,
              "custom experiment point needs a generator and cores");
    System system(effective, *generator, p.customCores);
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

MetricSet
ExperimentRunner::run(WorkloadId workload, const SimConfig &cfg)
{
    const std::string key = configKey(workload, cfg);
    if (cachingEnabled_) {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = cache_.find(key);
        if (it != cache_.end()) {
            ++cacheHits_;
            return it->second;
        }
    }

    const MetricSet m = simulate(workload, cfg);

    std::lock_guard<std::mutex> lock(mu_);
    ++simulationsRun_;
    if (cachingEnabled_) {
        cache_[key] = m;
        appendToCache(key, m);
    }
    return m;
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
        /** The result must carry per-core IPCs (fairness needs them);
         *  a cached pre-v4 row without them is treated as a miss. */
        bool needPerCore;
        /** Fairness point: its CSV row is appended after derivation so
         *  the on-disk cache carries the fairness columns. */
        bool deferAppend;
    };
    std::vector<WorkItem> work;
    work.reserve(points.size());
    std::vector<std::vector<std::size_t>> baselineAt(points.size());
    for (const Point &p : points) {
        const bool fair = !p.baselines.empty();
        work.push_back({&p, fair, fair});
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
        for (const Point::AloneBaseline &b : points[i].baselines) {
            mc_assert(b.run.baselines.empty(),
                      "baseline runs must not carry baselines");
            baselineAt[i].push_back(work.size());
            work.push_back({&b.run, true, false});
        }
    }

    std::vector<MetricSet> res(work.size());

    // One job per simulation that must actually run. With caching on,
    // duplicate uncached keys collapse into one job and the repeats
    // resolve from the memo cache afterwards — exactly what a serial
    // run() loop would do (first occurrence simulates, the rest hit).
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
            if (it != cache_.end() &&
                !(work[i].needPerCore && it->second.perCoreIpc.empty())) {
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

    // Derive the slowdown/fairness block of every point that carries
    // baselines, then persist the enriched row (once per key: a row
    // already carrying fairness columns is left alone).
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        if (p.baselines.empty())
            continue;
        std::vector<AloneBaselineMetrics> alone;
        alone.reserve(p.baselines.size());
        for (std::size_t j = 0; j < p.baselines.size(); ++j) {
            alone.push_back({p.baselines[j].firstCore,
                             p.baselines[j].numCores,
                             &res[baselineAt[i][j]]});
        }
        if (!deriveFairnessMetrics(res[i], alone)) {
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
