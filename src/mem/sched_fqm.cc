#include "sched_fqm.hh"

namespace mcsim {

FqmScheduler::FqmScheduler(std::uint32_t numCores)
    : numCores_(numCores),
      vtime_(std::size_t{kMaxBanksPerChannel} * (numCores + 1), 0)
{
}

void
FqmScheduler::onRequestServiced(const Request &req)
{
    ++vtime_[req.bankIndex * (numCores_ + 1) +
             coreSlot(req.core, numCores_)];
}

int
FqmScheduler::choose(const std::vector<Candidate> &cands, Tick,
                     const SchedulerContext &)
{
    // Earliest virtual time at the target bank wins; row hits then age
    // break ties so the policy still exploits trivially available
    // locality.
    return pickBest(cands, [this](const Candidate &a, const Candidate &b) {
        const auto va = virtualTime(a.req->core, a.req->bankIndex);
        const auto vb = virtualTime(b.req->core, b.req->bankIndex);
        if (va != vb)
            return va < vb;
        if (a.isRowHit != b.isRowHit)
            return a.isRowHit;
        return a.req->arrivedAt < b.req->arrivedAt;
    });
}

} // namespace mcsim
