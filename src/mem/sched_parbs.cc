#include "sched_parbs.hh"

#include <algorithm>
#include <map>

#include "common/log.hh"

namespace mcsim {

ParBsScheduler::ParBsScheduler(std::uint32_t numCores, ParBsConfig cfg)
    : numCores_(numCores), cfg_(cfg), rank_(numCores + 1, 0)
{
    mc_assert(cfg_.batchingCap >= 1, "PAR-BS batching cap must be >= 1");
}

void
ParBsScheduler::formBatch(const PoolView &pool)
{
    // Mark up to batchingCap oldest requests per (core, bank).
    std::map<std::pair<std::uint32_t, std::uint32_t>,
             std::vector<Request *>> perCoreBank;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        Request *req = pool[i];
        const auto key =
            std::make_pair(coreSlot(req->core, numCores_), req->bankIndex);
        perCoreBank[key].push_back(req);
    }
    markedOutstanding_ = 0;
    for (auto &[key, reqs] : perCoreBank) {
        (void)key;
        std::sort(reqs.begin(), reqs.end(),
                  [](const Request *a, const Request *b) {
                      return a->arrivedAt < b->arrivedAt;
                  });
        const std::size_t n =
            std::min<std::size_t>(reqs.size(), cfg_.batchingCap);
        for (std::size_t i = 0; i < n; ++i) {
            reqs[i]->marked = true;
            ++markedOutstanding_;
        }
    }
    if (markedOutstanding_ > 0) {
        ++batchesFormed_;
        computeRanks(pool);
    }
}

void
ParBsScheduler::computeRanks(const PoolView &pool)
{
    // Shortest job first: rank cores by (max marked requests to any
    // bank, then total marked requests), ascending.
    struct Load
    {
        std::map<std::uint32_t, std::uint32_t> perBank;
        std::uint32_t total = 0;
    };
    std::vector<Load> load(numCores_ + 1);
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const Request *req = pool[i];
        if (!req->marked)
            continue;
        auto &l = load[coreSlot(req->core, numCores_)];
        ++l.perBank[req->bankIndex];
        ++l.total;
    }
    std::vector<std::uint32_t> order(numCores_ + 1);
    for (std::uint32_t i = 0; i <= numCores_; ++i)
        order[i] = i;
    auto maxBank = [&](std::uint32_t core) {
        std::uint32_t m = 0;
        for (const auto &[b, n] : load[core].perBank) {
            (void)b;
            m = std::max(m, n);
        }
        return m;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         const auto ma = maxBank(a), mb = maxBank(b);
                         if (ma != mb)
                             return ma < mb;
                         return load[a].total < load[b].total;
                     });
    for (std::uint32_t pos = 0; pos < order.size(); ++pos)
        rank_[order[pos]] = pos;
}

void
ParBsScheduler::onRequestServiced(const Request &req)
{
    if (req.marked && markedOutstanding_ > 0)
        --markedOutstanding_;
}

int
ParBsScheduler::choose(const std::vector<Candidate> &cands, Tick,
                       const SchedulerContext &ctx)
{
    if (markedOutstanding_ == 0 && !ctx.pool.empty())
        formBatch(ctx.pool);

    // Priority: marked > row-hit > rank > age.
    return pickBest(cands, [&](const Candidate &a, const Candidate &b) {
        if (a.req->marked != b.req->marked)
            return a.req->marked;
        if (a.isRowHit != b.isRowHit)
            return a.isRowHit;
        const auto ra = rank_[coreSlot(a.req->core, numCores_)];
        const auto rb = rank_[coreSlot(b.req->core, numCores_)];
        if (ra != rb)
            return ra < rb;
        return a.req->arrivedAt < b.req->arrivedAt;
    });
}

} // namespace mcsim
