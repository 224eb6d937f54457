/**
 * @file
 * Per-layer replays of the traced run. Each layer's public entry
 * points are driven in isolation with the point's own generated
 * stream, so a layer's cost per call is measured without the rest of
 * the kernel around it:
 *
 *  - workload: SyntheticWorkload::tryNextOpLocal / nextOp and
 *    nextFetchBlock, in the per-core round-robin a core cluster pulls;
 *  - cpu: CacheHierarchy load / store / ifetch over that stream (the
 *    hierarchy is warmed first), capturing the DRAM miss stream;
 *  - mem: MemBackend::route over the miss stream, and the backend's
 *    MemController enqueue / tick, paced at the request rate the full
 *    run measured.
 *
 * Calls are timed in batches: one steady_clock read costs about as
 * much as one of these calls.
 */

#include <algorithm>
#include <memory>
#include <vector>

#include "cloudbench.hh"
#include "cpu/hierarchy.hh"
#include "mem/backend.hh"

using namespace mcsim;

namespace cloudbench {

namespace {

/** Ops pulled before timing, so the replayed L2 is warm. */
constexpr std::uint64_t kWarmOps = 2'000'000;
/** Ops in the timed generator and hierarchy batches. */
constexpr std::uint64_t kTimedOps = 1'000'000;
constexpr std::uint64_t kBatch = 4096;
/** DRAM cycles per timed block of the paced controller replay. */
constexpr std::uint64_t kCtlBlock = 1024;
/** Requests per timed enqueue group. */
constexpr std::size_t kEnqGroup = 16;

struct Access
{
    enum Kind : std::uint8_t { Load, Store, Fetch };
    Kind kind;
    CoreId core;
    Addr addr;
};

/** Round-robin op puller mirroring a core cluster's generator use. */
class StreamPuller
{
  public:
    StreamPuller(WorkloadGenerator &gen, std::uint32_t cores,
                 std::uint32_t instrsPerFetch)
        : gen_(gen), cores_(cores), perFetch_(instrsPerFetch),
          credits_(cores, 0)
    {
    }

    /** Pull the next op of the next core; append its accesses. */
    template <typename Sink>
    void
    pull(Sink &&sink)
    {
        const CoreId c = next_;
        next_ = next_ + 1 == cores_ ? 0 : next_ + 1;
        Op op;
        if (!gen_.tryNextOpLocal(c, op))
            op = gen_.nextOp(c);
        const std::int64_t instrs =
            op.kind == Op::Kind::Compute ? op.length : 1;
        instrs_ += static_cast<std::uint64_t>(instrs);
        credits_[c] -= instrs;
        while (credits_[c] < 0) {
            sink(Access{Access::Fetch, c, gen_.nextFetchBlock(c)});
            credits_[c] += perFetch_;
        }
        if (op.kind == Op::Kind::Load)
            sink(Access{Access::Load, c, op.addr});
        else if (op.kind == Op::Kind::Store)
            sink(Access{Access::Store, c, op.addr});
        ++ops_;
    }

    std::uint64_t ops() const { return ops_; }
    std::uint64_t instrs() const { return instrs_; }

  private:
    WorkloadGenerator &gen_;
    std::uint32_t cores_;
    std::int64_t perFetch_;
    std::vector<std::int64_t> credits_;
    CoreId next_ = 0;
    std::uint64_t ops_ = 0;
    std::uint64_t instrs_ = 0;
};

struct Miss
{
    CoreId core;
    Addr addr;
    bool isWrite;
};

/** Cache hierarchy whose DRAM reads return immediately. */
class InstantMemHierarchy
{
  public:
    InstantMemHierarchy(std::uint32_t cores, const HierarchyConfig &cfg)
        : h_(cores, cfg)
    {
        h_.setSendMemRead([this](CoreId c, Addr a) {
            pending_.push_back({c, a, false});
            if (recording)
                misses.push_back({c, a, false});
        });
        h_.setSendMemWrite([this](CoreId c, Addr a) {
            if (recording)
                misses.push_back({c, a, true});
        });
        h_.setWake([](CoreId, MissKind) {});
    }

    void
    access(const Access &a)
    {
        switch (a.kind) {
          case Access::Load: h_.load(a.core, a.addr); break;
          case Access::Store: h_.store(a.core, a.addr); break;
          case Access::Fetch: h_.ifetch(a.core, a.addr); break;
        }
        if (!pending_.empty()) {
            for (const Miss &m : pending_)
                h_.onMemResponse(m.core, m.addr);
            pending_.clear();
        }
    }

    bool recording = false;
    std::vector<Miss> misses;

  private:
    CacheHierarchy h_;
    std::vector<Miss> pending_;
};

/** Request storage for the controller replays. */
class RequestPool
{
  public:
    Request *
    get(const Request &proto)
    {
        Request *r;
        if (free_.empty()) {
            store_.push_back(std::make_unique<Request>());
            r = store_.back().get();
        } else {
            r = free_.back();
            free_.pop_back();
        }
        *r = proto;
        ++outstanding;
        return r;
    }

    void
    put(Request *r)
    {
        free_.push_back(r);
        --outstanding;
    }

    std::uint64_t outstanding = 0;

  private:
    std::vector<std::unique_ptr<Request>> store_;
    std::vector<Request *> free_;
};

void
recycleCompletions(MemBackend &be, RequestPool &pool)
{
    for (std::uint32_t q = 0; q < be.numQueues(); ++q) {
        be.queue(q).setCompletionCallback(
            [&pool](Request *r, Tick) { pool.put(r); });
    }
}

/** Median cost of an empty timed batch (two clock reads). */
double
clockOverheadNs()
{
    std::vector<double> s;
    for (int i = 0; i < 1001; ++i) {
        const auto t0 = Clock::now();
        s.push_back(std::chrono::duration<double, std::nano>(Clock::now() -
                                                             t0)
                        .count());
    }
    return median(s);
}

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

} // namespace

void
replayLayers(const PointSpec &spec, const FullRun &full, Report &out)
{
    const SimConfig &cfg = spec.cfg;
    const WorkloadParams &params = spec.params;
    const std::uint32_t cores = params.cores;
    const double windowNs = full.windowHostS * 1e9;
    const std::uint64_t capacity =
        makeMemBackend(cfg, cores)->capacityBytes();

    // ---- workload + cpu: generator stream into the hierarchy.
    SyntheticWorkload gen(params, capacity);
    StreamPuller puller(gen, cores, cfg.core.instrsPerFetchBlock);
    InstantMemHierarchy hier(cores, cfg.hierarchy);
    for (std::uint64_t i = 0; i < kWarmOps; ++i)
        puller.pull([&](const Access &a) { hier.access(a); });

    std::vector<Access> stream;
    stream.reserve(kTimedOps * 2);
    const std::uint64_t ops0 = puller.ops(), instrs0 = puller.instrs();
    double genNs = 0.0;
    for (std::uint64_t done = 0; done < kTimedOps; done += kBatch) {
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < kBatch; ++i)
            puller.pull([&](const Access &a) { stream.push_back(a); });
        genNs += nsSince(t0);
    }
    const double ops = static_cast<double>(puller.ops() - ops0);
    const double instrPerOp =
        static_cast<double>(puller.instrs() - instrs0) / ops;
    const double nsPerOp = genNs / ops;
    const double fullOps =
        static_cast<double>(full.metrics.committedInstructions) / instrPerOp;
    out.add("workload.ns_per_op", nsPerOp, "ns");
    out.add("workload.share_pct", 100.0 * nsPerOp * fullOps / windowNs, "%");

    hier.recording = true;
    double hierNs = 0.0;
    for (std::size_t i = 0; i < stream.size(); i += kBatch) {
        const std::size_t end = std::min(stream.size(), i + kBatch);
        const auto t0 = Clock::now();
        for (std::size_t j = i; j < end; ++j)
            hier.access(stream[j]);
        hierNs += nsSince(t0);
    }
    const double nsPerAccess = hierNs / static_cast<double>(stream.size());
    out.add("cpu.hier_ns_per_access", nsPerAccess, "ns");
    out.add("cpu.hier_share_pct",
            100.0 * nsPerAccess * static_cast<double>(full.l1Accesses) /
                windowNs,
            "%");
    const std::vector<Miss> misses = std::move(hier.misses);
    out.check(!misses.empty(), "cache replay produced no DRAM traffic");
    if (misses.empty())
        return;

    // ---- mem: pacing at the full run's DRAM request rate.
    const ClockDomains &clk = cfg.clocks;
    const double fullRequests =
        static_cast<double>(full.metrics.memReads + full.metrics.memWrites);
    const double windowDram = static_cast<double>(
        clk.ticksToDram(clk.coreToTicks(cfg.measureCoreCycles)).count());
    const double interval =
        fullRequests > 0 ? windowDram / fullRequests : 1.0;
    const auto arrivalCycle = [&](std::size_t i) {
        return static_cast<std::uint64_t>(static_cast<double>(i) * interval);
    };
    const auto dramTick = [&](std::uint64_t d) {
        return Tick{} + clk.dramToTicks(d);
    };

    // Routing: every request through MemBackend::route, batched.
    std::vector<Request> routed(misses.size());
    {
        auto be = makeMemBackend(cfg, cores);
        for (std::size_t i = 0; i < misses.size(); ++i) {
            Request &r = routed[i];
            r.id = i + 1;
            r.core = misses[i].core;
            r.addr = misses[i].addr;
            r.isWrite = misses[i].isWrite;
        }
        double routeNs = 0.0;
        for (std::size_t i = 0; i < routed.size(); i += kBatch) {
            const std::size_t end = std::min(routed.size(), i + kBatch);
            const auto t0 = Clock::now();
            for (std::size_t j = i; j < end; ++j)
                be->route(routed[j], dramTick(arrivalCycle(j)));
            routeNs += nsSince(t0);
        }
        const double nsPerRoute = routeNs / static_cast<double>(routed.size());
        out.add("mem.route_ns", nsPerRoute, "ns");
        out.add("mem.route_share_pct",
                100.0 * nsPerRoute * fullRequests / windowNs, "%");
    }

    // Enqueue cost at shallow queues: groups of kEnqGroup enqueues,
    // then untimed ticks until the queues are short again.
    const double clockNs = clockOverheadNs();
    double nsPerEnqueue = 0.0;
    {
        RequestPool pool;
        auto be = makeMemBackend(cfg, cores);
        recycleCompletions(*be, pool);
        std::vector<Tick> due(be->numQueues(), Tick{});
        std::uint64_t d = 0;
        double enqNs = 0.0;
        for (std::size_t i = 0; i < routed.size(); i += kEnqGroup) {
            const std::size_t end = std::min(routed.size(), i + kEnqGroup);
            std::vector<Request *> reqs;
            for (std::size_t j = i; j < end; ++j)
                reqs.push_back(pool.get(routed[j]));
            const Tick now = dramTick(d);
            const auto t0 = Clock::now();
            for (Request *r : reqs)
                be->queue(r->coord.channel).enqueue(r, now);
            enqNs += nsSince(t0) - clockNs;
            for (Request *r : reqs)
                due[r->coord.channel] = now;
            for (int spin = 0; spin < 4096; ++spin) {
                const Tick t = dramTick(d);
                bool shallow = true;
                for (std::uint32_t q = 0; q < be->numQueues(); ++q) {
                    if (due[q] <= t)
                        due[q] = be->queue(q).tick(t);
                    shallow = shallow && be->queue(q).readQueueLen() <= 4 &&
                              be->queue(q).writeQueueLen() <= 20;
                }
                ++d;
                if (shallow)
                    break;
            }
        }
        nsPerEnqueue =
            std::max(0.0, enqNs / static_cast<double>(routed.size()));
    }
    out.add("mem.ctl_ns_per_enqueue", nsPerEnqueue, "ns");

    // Paced replay: enqueue each request at its arrival cycle and tick
    // every queue when it is due, timed in blocks of DRAM cycles.
    {
        RequestPool pool;
        auto be = makeMemBackend(cfg, cores);
        recycleCompletions(*be, pool);
        std::vector<Tick> due(be->numQueues(), Tick{});
        // Open-loop arrivals would let a near-saturated queue grow
        // without bound; hold them (in order, like stalled cores) while
        // the target queue is twice as deep as the full run's mean.
        const std::size_t readCap = static_cast<std::size_t>(
            std::max(8.0, 2.0 * full.metrics.avgReadQueue));
        const std::size_t writeCap = static_cast<std::size_t>(
            std::max(32.0, 2.0 * full.metrics.avgWriteQueue));
        const auto backlogged = [&](const Request &r) {
            const MemController &mc = be->queue(r.coord.channel);
            return r.isWrite ? mc.writeQueueLen() >= writeCap
                             : mc.readQueueLen() >= readCap;
        };
        std::size_t next = 0;
        std::uint64_t ticks = 0, enqueues = 0;
        double loopNs = 0.0;
        const std::uint64_t limit = arrivalCycle(routed.size()) + 2'000'000;
        std::uint64_t d = 0;
        while ((next < routed.size() || pool.outstanding > 0) && d < limit) {
            const auto t0 = Clock::now();
            for (std::uint64_t k = 0; k < kCtlBlock; ++k, ++d) {
                const Tick now = dramTick(d);
                while (next < routed.size() && arrivalCycle(next) <= d &&
                       !backlogged(routed[next])) {
                    Request *r = pool.get(routed[next++]);
                    be->queue(r->coord.channel).enqueue(r, now);
                    due[r->coord.channel] = now;
                    ++enqueues;
                }
                for (std::uint32_t q = 0; q < be->numQueues(); ++q) {
                    if (due[q] <= now) {
                        due[q] = be->queue(q).tick(now);
                        ++ticks;
                    }
                }
            }
            loopNs += nsSince(t0);
        }
        out.check(next == routed.size() && pool.outstanding == 0,
                  "controller replay did not drain");
        const double nsPerTick =
            ticks ? std::max(0.0, loopNs - nsPerEnqueue *
                                               static_cast<double>(enqueues)) /
                        static_cast<double>(ticks)
                  : 0.0;
        out.add("mem.ctl_ns_per_tick", nsPerTick, "ns");
        out.add("mem.ctl_share_pct",
                100.0 *
                    (nsPerTick * static_cast<double>(full.kernel.ctlTicksRun) +
                     nsPerEnqueue * fullRequests) /
                    windowNs,
                "%");
    }
}

} // namespace cloudbench
