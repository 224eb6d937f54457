#include "sched_basic.hh"

#include <array>

namespace mcsim {

int
FcfsScheduler::choose(const std::vector<Candidate> &cands, Tick,
                      const SchedulerContext &)
{
    // Find the globally oldest request; issue only its command.
    int oldest = -1;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        if (oldest < 0 ||
            cands[i].req->arrivedAt < cands[oldest].req->arrivedAt) {
            oldest = static_cast<int>(i);
        }
    }
    if (oldest >= 0 && cands[oldest].issuableNow)
        return oldest;
    return -1;
}

int
FcfsBanksScheduler::choose(const std::vector<Candidate> &cands, Tick,
                           const SchedulerContext &)
{
    // The oldest request per bank is eligible (the first one on equal
    // arrival); among the eligible and issuable ones, pick the oldest
    // overall, lower request id on equal arrival (age fairness across
    // banks; the bank queues themselves are strictly in order).
    std::array<int, kMaxBanksPerChannel> headOfBank;
    headOfBank.fill(-1);
    for (std::size_t i = 0; i < cands.size(); ++i) {
        int &head = headOfBank[cands[i].req->bankIndex];
        if (head < 0 ||
            cands[i].req->arrivedAt < cands[head].req->arrivedAt) {
            head = static_cast<int>(i);
        }
    }
    int best = -1;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        if (headOfBank[cands[i].req->bankIndex] != static_cast<int>(i))
            continue; // Not the head of its bank queue.
        if (!cands[i].issuableNow)
            continue;
        const Request &r = *cands[i].req;
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
