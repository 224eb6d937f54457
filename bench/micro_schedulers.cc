/**
 * @file
 * google-benchmark microbenchmarks of per-cycle scheduler decision
 * cost. The paper argues FR-FCFS's simplicity is a feature; this
 * bench quantifies the software-model analogue: how expensive one
 * choose() call is for each policy as the pool grows (half of it
 * issuable, offered as candidates in pool order).
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "mem/factory.hh"
#include "mem/request.hh"

using namespace mcsim;

namespace {

/** A deterministic pool of requests in queue order, and the issuable
 *  half of it as candidates, the way MemController offers them. */
struct Pool
{
    std::vector<std::unique_ptr<Request>> storage;
    std::vector<Request *> queue;
    std::vector<Candidate> cands;
    std::size_t pendingHits = 0;
};

Pool
makePool(std::size_t n)
{
    Pool pool;
    for (std::size_t i = 0; i < n; ++i) {
        auto req = std::make_unique<Request>();
        req->id = i;
        req->core = static_cast<CoreId>(i % 16);
        req->arrivedAt = Tick{1000 + i * 7};
        req->coord.rank = i % 2;
        req->coord.bank = (i / 2) % 8;
        req->bankIndex = req->coord.rank * 8 + req->coord.bank;
        req->coord.row = i * 97 % 4096;
        req->isWrite = i % 4 == 0;
        req->seq = static_cast<std::uint32_t>(i);
        Candidate c;
        c.req = req.get();
        c.cmd = i % 3 == 0 ? DramCommandType::Read
                           : DramCommandType::Activate;
        c.isRowHit = i % 3 == 0;
        pool.pendingHits += c.isRowHit;
        if (i % 2 == 0)
            pool.cands.push_back(c);
        pool.queue.push_back(req.get());
        pool.storage.push_back(std::move(req));
    }
    return pool;
}

void
schedulerChoose(benchmark::State &state, SchedulerKind kind)
{
    auto scheduler = makeScheduler(kind, 16);
    const Pool pool = makePool(state.range(0));
    SchedulerContext ctx;
    ctx.readQueueLen = pool.queue.size();
    ctx.pool = PoolView(pool.queue);
    ctx.pendingHits = pool.pendingHits;
    Tick now{100000};
    for (auto _ : state) {
        benchmark::DoNotOptimize(scheduler->choose(pool.cands, now, ctx));
        now += kBaselineClocks.ticksPerDram;
    }
}

} // namespace

#define SCHED_BENCH(name, kind)                                            \
    BENCHMARK_CAPTURE(schedulerChoose, name, kind)                         \
        ->Arg(4)                                                           \
        ->Arg(16)                                                          \
        ->Arg(64)

SCHED_BENCH(frfcfs, SchedulerKind::FrFcfs);
SCHED_BENCH(fcfs, SchedulerKind::Fcfs);
SCHED_BENCH(fcfs_banks, SchedulerKind::FcfsBanks);
SCHED_BENCH(parbs, SchedulerKind::ParBs);
SCHED_BENCH(atlas, SchedulerKind::Atlas);
SCHED_BENCH(rl, SchedulerKind::Rl);
SCHED_BENCH(fqm, SchedulerKind::Fqm);
SCHED_BENCH(tcm, SchedulerKind::Tcm);
SCHED_BENCH(stfm, SchedulerKind::Stfm);

BENCHMARK_MAIN();
