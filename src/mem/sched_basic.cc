#include "sched_basic.hh"

#include <array>

namespace mcsim {

int
FcfsScheduler::choose(const std::vector<Candidate> &cands, Tick,
                      const SchedulerContext &ctx)
{
    // The pool front is the oldest request; issue only its command.
    // Candidates keep pool order, so an issuable front is candidate 0.
    return !cands.empty() && cands[0].req == ctx.pool[0] ? 0 : -1;
}

int
FcfsBanksScheduler::choose(const std::vector<Candidate> &cands, Tick,
                           const SchedulerContext &ctx)
{
    // The oldest request per bank is eligible: its first in the pool,
    // which is in arrival order. Among the eligible and issuable ones,
    // pick the oldest overall, lower request id on equal arrival (age
    // fairness across banks; the bank queues themselves are strictly
    // in order). The pool walk stops once every candidate bank's head
    // is known.
    std::uint64_t wanted = 0;
    for (const Candidate &c : cands)
        wanted |= 1ull << c.req->bankIndex;
    std::array<const Request *, kMaxBanksPerChannel> headOfBank{};
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < ctx.pool.size() && (wanted & ~seen); ++i) {
        const Request *r = ctx.pool[i];
        const std::uint64_t bit = 1ull << r->bankIndex;
        if (!(seen & bit)) {
            seen |= bit;
            headOfBank[r->bankIndex] = r;
        }
    }
    int best = -1;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        const Request &r = *cands[i].req;
        if (headOfBank[r.bankIndex] != &r)
            continue; // Not the head of its bank queue.
        if (best < 0 || r.arrivedAt < cands[best].req->arrivedAt ||
            (r.arrivedAt == cands[best].req->arrivedAt &&
             r.id < cands[best].req->id)) {
            best = static_cast<int>(i);
        }
    }
    return best;
}

int
FrFcfsScheduler::choose(const std::vector<Candidate> &cands, Tick,
                        const SchedulerContext &)
{
    // Row hits first, then older requests.
    return pickBest(cands, [](const Candidate &a, const Candidate &b) {
        if (a.isRowHit != b.isRowHit)
            return a.isRowHit;
        return a.req->arrivedAt < b.req->arrivedAt;
    });
}

} // namespace mcsim
