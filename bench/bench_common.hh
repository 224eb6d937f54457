/**
 * @file
 * Shared machinery for the bench binaries: the config study behind
 * the figure tables, the sweep and bench flag readers, and the Zipf
 * traffic and JSON stamp of the single-configuration benches.
 *
 * All binaries share one on-disk results cache (see ExperimentRunner),
 * so the full simulation set runs once regardless of which bench
 * binary is invoked first.
 */

#ifndef CLOUDMC_BENCH_BENCH_COMMON_HH
#define CLOUDMC_BENCH_BENCH_COMMON_HH

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "common/table.hh"
#include "sim/experiment.hh"
#include "workload/workload.hh"

namespace mcsim::bench {

/** One column of a figure: a configuration label and its per-workload
 *  results keyed by WorkloadId. */
struct Series
{
    std::string label;
    std::map<WorkloadId, MetricSet> results;
};

/** One column of a custom study: a label and its configuration. */
struct LabeledConfig
{
    std::string label;
    SimConfig cfg;
};

/**
 * Run one series per labeled configuration across @p workloads,
 * submitting the whole sweep as a single parallel batch.
 */
std::vector<Series>
runConfigStudy(ExperimentRunner &runner,
               const std::vector<LabeledConfig> &configs,
               const std::vector<WorkloadId> &workloads = {
                   kAllWorkloads.begin(), kAllWorkloads.end()});

/**
 * Read the sweep benches' flags: --fast N and --threads N set
 * CLOUDMC_FAST and CLOUDMC_THREADS for the runner. Returns whether
 * --csv was given. An unknown flag, a missing value or a value that
 * is not a positive integer is a parseBenchFlags() named error and
 * exits 1.
 */
bool sweepFlags(int argc, char **argv);

/**
 * One `--name value` flag of a single-configuration bench: parse()
 * stores the value in the bench's setting and returns false when the
 * value is not what `what` names.
 */
struct BenchFlag
{
    const char *name;
    const char *what; ///< "a positive integer".
    std::function<bool(const std::string &value)> parse;
};

/** BenchFlag parsers: a nonzero unsigned, a Zipf skew in [0, 1), and
 *  any non-empty text. */
std::function<bool(const std::string &)> positiveUint(std::uint64_t &out);
std::function<bool(const std::string &)> zipfTheta(double &out);
std::function<bool(const std::string &)> text(std::string &out);

/**
 * Apply argv as `--name value` pairs. An unknown flag, a flag without
 * a value or a value parse() rejects prints a named error
 * ("error: --cycles needs a positive integer, got 'abc'") and returns
 * false; the bench then exits 1.
 */
bool parseBenchFlags(int argc, char **argv,
                     const std::vector<BenchFlag> &flags);

/**
 * Commit fingerprint for bench stamps. First hit wins: the
 * CLOUDMC_GIT_SHA environment variable (explicit override),
 * GITHUB_SHA (set by CI), `git rev-parse HEAD` run in the current
 * directory at bench time, the SHA CMake captured at configure time
 * (stale across commits without a reconfigure, so it ranks below the
 * live lookup), and finally "unknown".
 */
std::string gitSha();

/**
 * Write a bench's JSON stamp to @p path and print the same bytes to
 * stdout: one object holding "bench" and "git_sha", then @p members
 * in order as `"key": value`, each value already JSON text (a
 * formatMetric() number, a metricsJson() object, a quoted string).
 * Returns false, after a named error, when @p path cannot be written.
 */
bool writeStamp(
    const std::string &path, const char *bench,
    const std::vector<std::pair<std::string, std::string>> &members);

/**
 * Zipf-skewed traffic for the single-configuration ablations, on
 * cfg.numCores cores. Each op is a memory access with probability
 * memProb, else a 1-8 instruction compute run. An access draws its
 * item from a Zipfian over @p items (item 0 hottest), its address
 * inside the item from @p place, and is a store with probability 0.3.
 * All state is per-core (each core owns its RNG stream), so
 * tryNextOpLocal always succeeds and the stream is identical under
 * every kernel.
 */
class ZipfTraffic final : public WorkloadGenerator
{
  public:
    /** The address of one access inside @p item; may draw from @p rng. */
    using Place = std::function<Addr(std::uint64_t item, Pcg32 &rng)>;

    ZipfTraffic(const SimConfig &cfg, std::uint64_t items, double theta,
                double memProb, const char *name, Place place);

    /**
     * A keyless runAll() point that runs this traffic under @p cfg. It
     * is never cached, so it always simulates, and its generator
     * factory holds copies of the arguments, so any worker thread may
     * call it.
     */
    static ExperimentRunner::Point
    point(const SimConfig &cfg, std::uint64_t items, double theta,
          double memProb, const char *name, Place place);

    const char *name() const override { return name_; }

    Op nextOp(CoreId core) override { return draw(cores_[core]); }

    bool
    tryNextOpLocal(CoreId core, Op &out) override
    {
        out = draw(cores_[core]);
        return true;
    }

    Addr nextFetchBlock(CoreId core) override;

  private:
    struct CoreState
    {
        Pcg32 rng;
        std::uint64_t codePos = 0;
    };

    Op draw(CoreState &cs);

    std::uint64_t blockBytes_;
    ZipfianGenerator zipf_;
    double memProb_;
    const char *name_;
    Place place_;
    std::vector<CoreState> cores_;
};

} // namespace mcsim::bench

#endif // CLOUDMC_BENCH_BENCH_COMMON_HH
