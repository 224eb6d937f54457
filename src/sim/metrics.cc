#include "metrics.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/log.hh"

namespace mcsim {

namespace {

bool
sameBits(double a, double b)
{
    std::uint64_t x = 0, y = 0;
    std::memcpy(&x, &a, sizeof(x));
    std::memcpy(&y, &b, sizeof(y));
    return x == y;
}

bool
sameBits(std::uint64_t a, std::uint64_t b)
{
    return a == b;
}

template <typename T>
std::string
fieldMismatch(const char *name, const T &a, const T &b)
{
    if (sameBits(a, b))
        return {};
    return std::string(name) + ": " + formatMetric(a) + " vs " +
           formatMetric(b);
}

template <typename T>
std::string
fieldMismatch(const char *name, const std::vector<T> &a,
              const std::vector<T> &b)
{
    if (a.size() != b.size()) {
        return std::string(name) + ": " + std::to_string(a.size()) +
               " vs " + std::to_string(b.size()) + " entries";
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!sameBits(a[i], b[i])) {
            return std::string(name) + "[" + std::to_string(i) +
                   "]: " + formatMetric(a[i]) + " vs " +
                   formatMetric(b[i]);
        }
    }
    return {};
}

/** A JSON array of @p list's elements. */
template <typename T>
std::string
jsonValue(const std::vector<T> &list)
{
    std::string out = formatMetric(list);
    std::replace(out.begin(), out.end(), ';', ',');
    return '[' + out + ']';
}

template <typename T>
std::string
jsonValue(const T &v)
{
    return formatMetric(v);
}

} // namespace

std::string
formatMetric(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
formatMetric(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
metricsJson(const MetricSet &m, int indent)
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    std::string out = "{";
    const char *sep = "\n";
    forEachMetricField([&](const char *name, auto member) {
        out += sep;
        out += pad + "  \"" + name + "\": " + jsonValue(m.*member);
        sep = ",\n";
    });
    return out + '\n' + pad + '}';
}

std::string
metricMismatch(const MetricSet &a, const MetricSet &b)
{
    std::string first;
    forEachMetricField([&](const char *name, auto member) {
        if (first.empty())
            first = fieldMismatch(name, a.*member, b.*member);
    });
    return first;
}

bool
deriveFairnessMetrics(MetricSet &shared,
                      const std::vector<AloneBaselineMetrics> &baselines)
{
    shared.perCoreSlowdown.clear();
    shared.weightedSpeedup = 0.0;
    shared.harmonicSpeedup = 0.0;
    shared.maxSlowdown = 0.0;

    const std::size_t cores = shared.perCoreIpc.size();
    if (cores == 0 || baselines.empty())
        return false;

    // Resolve each shared core's alone-run IPC; -1 marks "uncovered".
    std::vector<double> aloneIpc(cores, -1.0);
    for (const AloneBaselineMetrics &b : baselines) {
        if (!b.alone || b.numCores == 0 ||
            b.firstCore + b.numCores > cores) {
            return false;
        }
        const std::vector<double> &alone = b.alone->perCoreIpc;
        const bool perCore = alone.size() == b.numCores;
        if (!perCore && alone.size() != 1)
            return false; // Neither part-isolated nor single-core.
        for (std::uint32_t l = 0; l < b.numCores; ++l) {
            const std::uint32_t c = b.firstCore + l;
            if (aloneIpc[c] >= 0.0)
                return false; // Overlapping baselines.
            aloneIpc[c] = perCore ? alone[l] : alone[0];
        }
    }
    if (std::any_of(aloneIpc.begin(), aloneIpc.end(),
                    [](double v) { return v < 0.0; })) {
        return false; // A core has no baseline.
    }

    shared.perCoreSlowdown.resize(cores, 1.0);
    double slowdownSum = 0.0;
    for (std::size_t c = 0; c < cores; ++c) {
        const double sharedIpc = shared.perCoreIpc[c];
        const double alone = aloneIpc[c];
        double s = 1.0;
        if (alone > 0.0) {
            // A fully starved core (0 instructions committed in the
            // shared window while its alone run makes progress) is the
            // very pathology these metrics exist to expose: score it
            // as if it had committed a single instruction, the largest
            // finite slowdown the window can attest to.
            const double floorIpc =
                shared.measuredCycles
                    ? 1.0 / static_cast<double>(shared.measuredCycles)
                    : 1.0;
            s = alone / (sharedIpc > 0.0 ? sharedIpc : floorIpc);
        }
        shared.perCoreSlowdown[c] = s;
        slowdownSum += s;
        if (alone > 0.0)
            shared.weightedSpeedup += sharedIpc / alone;
        if (s > shared.maxSlowdown)
            shared.maxSlowdown = s;
    }
    shared.harmonicSpeedup = slowdownSum > 0.0
                                 ? static_cast<double>(cores) / slowdownSum
                                 : 0.0;
    return true;
}

} // namespace mcsim
