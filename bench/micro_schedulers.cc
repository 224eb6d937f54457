/**
 * @file
 * google-benchmark microbenchmarks of per-cycle scheduler decision
 * cost. The paper argues FR-FCFS's simplicity is a feature; this
 * bench quantifies the software-model analogue: how expensive one
 * choose() call is for each policy as the candidate pool grows.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "mem/factory.hh"
#include "mem/request.hh"

using namespace mcsim;

namespace {

/** Build a deterministic candidate pool of the given size. */
std::pair<std::vector<Candidate>, std::vector<std::unique_ptr<Request>>>
makePool(std::size_t n)
{
    std::vector<std::unique_ptr<Request>> storage;
    std::vector<Candidate> cands;
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
        Candidate c;
        c.req = req.get();
        c.cmd = i % 3 == 0 ? DramCommandType::Read
                           : DramCommandType::Activate;
        c.isRowHit = i % 3 == 0;
        c.issuableNow = i % 2 == 0;
        storage.push_back(std::move(req));
        cands.push_back(c);
    }
    return {std::move(cands), std::move(storage)};
}

void
schedulerChoose(benchmark::State &state, SchedulerKind kind)
{
    auto scheduler = makeScheduler(kind, 16);
    auto [cands, storage] = makePool(state.range(0));
    SchedulerContext ctx;
    ctx.readQueueLen = cands.size();
    Tick now{100000};
    for (auto _ : state) {
        benchmark::DoNotOptimize(scheduler->choose(cands, now, ctx));
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
