#include "bench_common.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/spec.hh"

namespace mcsim::bench {

using Point = ExperimentRunner::Point;

std::vector<Series>
runConfigStudy(ExperimentRunner &runner,
               const std::vector<LabeledConfig> &configs,
               const std::vector<WorkloadId> &workloads)
{
    std::vector<Point> points;
    points.reserve(configs.size() * workloads.size());
    for (const auto &lc : configs) {
        for (auto wl : workloads)
            points.push_back({wl, lc.cfg});
    }
    const auto metrics = runner.runAll(points);

    std::vector<Series> out;
    std::size_t i = 0;
    for (const auto &lc : configs) {
        Series s;
        s.label = lc.label;
        for (auto wl : workloads)
            s.results[wl] = metrics[i++];
        out.push_back(std::move(s));
    }
    return out;
}

bool
sweepFlags(int argc, char **argv)
{
    bool csv = false;
    std::vector<char *> pairs{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--csv") == 0)
            csv = true;
        else
            pairs.push_back(argv[i]);
    }
    std::uint64_t fast = 0, threads = 0;
    if (!parseBenchFlags(
            static_cast<int>(pairs.size()), pairs.data(),
            {{"fast", "a positive integer", positiveUint(fast)},
             {"threads", "a positive integer", positiveUint(threads)}})) {
        std::exit(1);
    }
    if (fast)
        setenv("CLOUDMC_FAST", std::to_string(fast).c_str(), 1);
    if (threads)
        setenv("CLOUDMC_THREADS", std::to_string(threads).c_str(), 1);
    return csv;
}

std::function<bool(const std::string &)>
positiveUint(std::uint64_t &out)
{
    return [&out](const std::string &v) {
        return parseUint(v, out) && out > 0;
    };
}

std::function<bool(const std::string &)>
zipfTheta(double &out)
{
    return [&out](const std::string &v) {
        char *end = nullptr;
        out = std::strtod(v.c_str(), &end);
        return !v.empty() && *end == '\0' && out >= 0.0 && out < 1.0;
    };
}

std::function<bool(const std::string &)>
text(std::string &out)
{
    return [&out](const std::string &v) {
        out = v;
        return !v.empty();
    };
}

bool
parseBenchFlags(int argc, char **argv, const std::vector<BenchFlag> &flags)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        std::string err = "is not a flag of this bench";
        for (const BenchFlag &f : flags) {
            if (flag != std::string("--") + f.name)
                continue;
            if (i + 1 == argc)
                err = "needs a value";
            else if (f.parse(argv[++i]))
                err.clear();
            else
                err = std::string("needs ") + f.what + ", got '" +
                      argv[i] + "'";
            break;
        }
        if (!err.empty()) {
            std::fprintf(stderr, "error: %s %s\n", flag.c_str(),
                         err.c_str());
            return false;
        }
    }
    return true;
}

std::string
gitSha()
{
    if (const char *sha = std::getenv("CLOUDMC_GIT_SHA"))
        return sha;
    if (const char *sha = std::getenv("GITHUB_SHA"))
        return sha;
    if (std::FILE *p = popen("git rev-parse HEAD 2>/dev/null", "r")) {
        char buf[64] = {};
        const bool got = std::fgets(buf, sizeof(buf), p) != nullptr;
        const bool clean = pclose(p) == 0;
        if (got && clean) {
            std::string sha(buf);
            while (!sha.empty() &&
                   std::isspace(static_cast<unsigned char>(sha.back()))) {
                sha.pop_back();
            }
            if (sha.size() == 40)
                return sha;
        }
    }
    if (CLOUDMC_GIT_SHA_CONFIGURED[0] != '\0')
        return CLOUDMC_GIT_SHA_CONFIGURED;
    return "unknown";
}

bool
writeStamp(const std::string &path, const char *bench,
           const std::vector<std::pair<std::string, std::string>> &members)
{
    std::string json = std::string("{\n  \"bench\": \"") + bench +
                       "\",\n  \"git_sha\": \"" + gitSha() + '"';
    for (const auto &[key, value] : members)
        json += ",\n  \"" + key + "\": " + value;
    json += "\n}\n";
    std::fputs(json.c_str(), stdout);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f || std::fputs(json.c_str(), f) < 0) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        if (f)
            std::fclose(f);
        return false;
    }
    return std::fclose(f) == 0;
}

ZipfTraffic::ZipfTraffic(const SimConfig &cfg, std::uint64_t items,
                         double theta, double memProb, const char *name,
                         Place place)
    : blockBytes_(cfg.dram.blockBytes), zipf_(items, theta),
      memProb_(memProb), name_(name), place_(std::move(place))
{
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        CoreState cs;
        cs.rng.reseed(cfg.seed, 0x5851f42d4c957f2dULL + c);
        cores_.push_back(cs);
    }
}

Point
ZipfTraffic::point(const SimConfig &cfg, std::uint64_t items, double theta,
                   double memProb, const char *name, Place place)
{
    Point p;
    p.cfg = cfg;
    p.customCores = cfg.numCores;
    p.makeGenerator = [cfg, items, theta, memProb, name, place] {
        return std::make_unique<ZipfTraffic>(cfg, items, theta, memProb,
                                             name, place);
    };
    return p;
}

Addr
ZipfTraffic::nextFetchBlock(CoreId core)
{
    // A small per-core code loop of 64 blocks: misses once, then
    // lives in L1I.
    constexpr std::uint64_t kCodeBlocks = 64;
    CoreState &cs = cores_[core];
    const std::uint64_t block =
        (static_cast<std::uint64_t>(core) * kCodeBlocks) +
        (cs.codePos++ & (kCodeBlocks - 1));
    return block * blockBytes_;
}

Op
ZipfTraffic::draw(CoreState &cs)
{
    Op op;
    if (cs.rng.chance(memProb_)) {
        const std::uint64_t item = zipf_.sample(cs.rng);
        op.addr = place_(item, cs.rng);
        op.kind = cs.rng.chance(0.3) ? Op::Kind::Store : Op::Kind::Load;
    } else {
        op.kind = Op::Kind::Compute;
        op.length = 1 + cs.rng.below(8);
    }
    return op;
}

} // namespace mcsim::bench
