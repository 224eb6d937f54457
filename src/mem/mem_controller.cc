#include "mem_controller.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/log.hh"

namespace mcsim {

MemController::MemController(Channel &channel,
                             std::unique_ptr<Scheduler> scheduler,
                             std::unique_ptr<PagePolicy> pagePolicy,
                             std::uint32_t numCores,
                             MemControllerConfig cfg)
    : channel_(channel), clk_(channel.clocks()),
      scheduler_(std::move(scheduler)),
      pagePolicy_(std::move(pagePolicy)), numCores_(numCores),
      banksPerRank_(channel.rank(0).numBanks()), cfg_(std::move(cfg))
{
    mc_assert(scheduler_ && pagePolicy_,
              "controller needs a scheduler and a page policy");
    mc_assert(cfg_.writeDrainLow < cfg_.writeDrainHigh,
              "write drain watermarks inverted");
    stats_.perCoreReads.assign(numCores_ + 1, 0);
    stats_.perCoreLatencyTicks.assign(numCores_ + 1, TickSpan{});
}

void
MemController::resetStats(Tick now)
{
    MemControllerStats fresh;
    fresh.perCoreReads.assign(numCores_ + 1, 0);
    fresh.perCoreLatencyTicks.assign(numCores_ + 1, TickSpan{});
    fresh.readQueueLen.reset(now);
    fresh.writeQueueLen.reset(now);
    fresh.readQueueLen.update(now, static_cast<double>(readQ_.size()));
    fresh.writeQueueLen.update(now, static_cast<double>(writeQ_.size()));
    stats_ = std::move(fresh);
    channel_.resetStats(now);
}

void
MemController::enqueue(Request *req, Tick now)
{
    req->arrivedAt = now;
    req->bankIndex = static_cast<std::uint16_t>(
        req->coord.rank * banksPerRank_ + req->coord.bank);
    if (!req->isWrite) {
        // Read-around-write forwarding: a read that matches a queued
        // write is satisfied from the write queue.
        for (const Request *w : writeQ_) {
            if (w->addr == req->addr) {
                ++stats_.forwardedReads;
                req->completedAt =
                    now + clk_.dramToTicks(cfg_.forwardLatencyCycles);
                responses_.push({req->completedAt, req});
                return;
            }
        }
        readQ_.push_back(req);
        stats_.readQueueLen.update(now, static_cast<double>(readQ_.size()));
    } else {
        writeQ_.push_back(req);
        stats_.writeQueueLen.update(now,
                                    static_cast<double>(writeQ_.size()));
    }
    req->seq = nextSeq_++;
    indexInsert(req);
    scheduler_->onRequestArrived(*req);
}

void
MemController::indexInsert(Request *req)
{
    BankIndex &ix = index_[req->isWrite ? kWrite : kRead];
    const std::uint32_t bi = req->bankIndex;
    const std::uint64_t bit = 1ull << bi;
    ix.reqs[bi].push_back(req);
    ix.banks |= bit;
    const Bank &bank = channel_.bank(req->coord.rank, req->coord.bank);
    if (bank.isOpen() && bank.openRow() == req->coord.row) {
        ++ix.hits[bi];
        ++ix.totalHits;
    }
    if (req->availableAt > req->arrivedAt) {
        ++ix.gated[bi];
        ix.gatedBanks |= bit;
    }
}

void
MemController::indexRemove(Request *req)
{
    BankIndex &ix = index_[req->isWrite ? kWrite : kRead];
    const std::uint32_t bi = req->bankIndex;
    const std::uint64_t bit = 1ull << bi;
    std::vector<Request *> &reqs = ix.reqs[bi];
    removeFromQueue(reqs, req);
    if (reqs.empty())
        ix.banks &= ~bit;
    const Bank &bank = channel_.bank(req->coord.rank, req->coord.bank);
    if (bank.isOpen() && bank.openRow() == req->coord.row) {
        --ix.hits[bi];
        --ix.totalHits;
    }
    if (req->availableAt > req->arrivedAt && --ix.gated[bi] == 0)
        ix.gatedBanks &= ~bit;
}

void
MemController::indexActivate(std::uint32_t bankIndex, std::uint64_t row)
{
    // The bank was closed, so its hit counts were 0.
    for (BankIndex &ix : index_) {
        std::uint32_t n = 0;
        for (const Request *req : ix.reqs[bankIndex])
            n += req->coord.row == row;
        ix.hits[bankIndex] = n;
        ix.totalHits += n;
    }
}

std::string
MemController::indexMismatch() const
{
    for (const std::uint32_t q : {kRead, kWrite}) {
        const std::vector<Request *> &queue =
            q == kWrite ? writeQ_ : readQ_;
        const BankIndex &ix = index_[q];
        const std::string name = q == kWrite ? "write queue" : "read queue";
        BankIndex fresh;
        for (std::size_t i = 0; i < queue.size(); ++i) {
            const Request *req = queue[i];
            if (i > 0 && (req->arrivedAt < queue[i - 1]->arrivedAt ||
                          static_cast<std::int32_t>(
                              req->seq - queue[i - 1]->seq) <= 0)) {
                return name + ": out of arrival order at position " +
                       std::to_string(i);
            }
            const std::uint32_t bi = req->bankIndex;
            fresh.reqs[bi].push_back(queue[i]);
            fresh.banks |= 1ull << bi;
            const Bank &bank =
                channel_.bank(req->coord.rank, req->coord.bank);
            if (bank.isOpen() && bank.openRow() == req->coord.row) {
                ++fresh.hits[bi];
                ++fresh.totalHits;
            }
            if (req->availableAt > req->arrivedAt) {
                ++fresh.gated[bi];
                fresh.gatedBanks |= 1ull << bi;
            }
        }
        if (ix.banks != fresh.banks)
            return name + ": bank mask differs";
        if (ix.gatedBanks != fresh.gatedBanks)
            return name + ": gated-bank mask differs";
        if (ix.totalHits != fresh.totalHits)
            return name + ": total hit count differs";
        for (std::uint32_t bi = 0; bi < kMaxBanksPerChannel; ++bi) {
            const std::string where = name + ", bank " + std::to_string(bi);
            if (ix.reqs[bi] != fresh.reqs[bi])
                return where + ": members or their order differ";
            if (ix.hits[bi] != fresh.hits[bi])
                return where + ": open-row hit count differs";
            if (ix.gated[bi] != fresh.gated[bi])
                return where + ": gated count differs";
        }
    }
    const std::uint32_t banks = channel_.numRanks() * banksPerRank_;
    for (std::uint32_t bi = 0; bi < banks; ++bi) {
        const BankSlot &s = channel_.slot(bi);
        const bool open = (channel_.openBankMask() >> bi) & 1;
        if (open != channel_.bank(s.rank, s.bank).isOpen())
            return "open-bank mask differs at bank " + std::to_string(bi);
    }
    return "";
}

void
MemController::deliverResponses(Tick now)
{
    while (!responses_.empty() && responses_.top().readyAt <= now) {
        Request *req = responses_.top().req;
        responses_.pop();
        const TickSpan latency = req->completedAt - req->arrivedAt;
        ++stats_.readLatencySamples;
        stats_.readLatencyTicks += latency;
        stats_.readLatencyHist.sample(clk_.ticksToCore(latency).count());
        const auto slot = coreSlot(req->core, numCores_);
        ++stats_.perCoreReads[slot];
        stats_.perCoreLatencyTicks[slot] += latency;
        if (onComplete_)
            onComplete_(req, now);
    }
}

void
MemController::updateDrainMode(Tick now)
{
    if (!readQ_.empty())
        lastReadPendingAt_ = now;
    const bool readsLongIdle =
        readQ_.empty() &&
        now - lastReadPendingAt_ >=
            clk_.dramToTicks(cfg_.writeIdleDrainCycles);

    if (drainingWrites_) {
        // The long-idle drain keeps going; the watermark drain stops at
        // the low mark so arriving reads see a short write burst at most.
        if (!readsLongIdle &&
            (writeQ_.size() <= cfg_.writeDrainLow || writeQ_.empty())) {
            drainingWrites_ = false;
        }
    } else {
        if (writeQ_.size() >= cfg_.writeDrainHigh ||
            (readQ_.empty() && writeQ_.size() >= cfg_.writeDrainIdle) ||
            (readsLongIdle && !writeQ_.empty())) {
            drainingWrites_ = true;
        }
    }
    if (writeQ_.empty())
        drainingWrites_ = false;
}

bool
MemController::tryRefresh(Tick now)
{
    const int rankIdx = channel_.refreshDueRank(now);
    if (rankIdx < 0)
        return false;
    const auto r = static_cast<std::uint32_t>(rankIdx);
    const Rank &rank = channel_.rank(r);

    if (channel_.perBankRefresh()) {
        // REFpb targets one bank round-robin; only it must be closed,
        // the rest of the rank stays schedulable.
        const std::uint32_t b = rank.refreshDueBank();
        if (rank.bank(b).isOpen()) {
            const auto pre = DramCommand::precharge(r, b);
            if (channel_.canIssue(pre, now)) {
                recordPrecharge(r * banksPerRank_ + b, rank.bank(b));
                channel_.issue(pre, now);
                return true;
            }
            return false; // Target bank not yet precharge-able; wait.
        }
        const auto ref = DramCommand::refreshBank(r, b);
        if (channel_.canIssue(ref, now)) {
            channel_.issue(ref, now);
            return true;
        }
        return false;
    }

    // All-bank refresh: close any open bank in the rank first.
    for (std::uint32_t b = 0; b < rank.numBanks(); ++b) {
        if (!rank.bank(b).isOpen())
            continue;
        const auto pre = DramCommand::precharge(r, b);
        if (channel_.canIssue(pre, now)) {
            recordPrecharge(r * banksPerRank_ + b, rank.bank(b));
            channel_.issue(pre, now);
            return true;
        }
        return false; // Open bank not yet precharge-able; wait.
    }
    const auto ref = DramCommand::refresh(r);
    if (channel_.canIssue(ref, now)) {
        channel_.issue(ref, now);
        return true;
    }
    return false;
}

void
MemController::buildCandidates(Tick now)
{
    cands_.clear();
    poolLegalAt_ = kMaxTick;
    const auto consider = [this](Tick t) {
        if (t < poolLegalAt_)
            poolLegalAt_ = t;
    };
    std::uint64_t poolBanks = 0;
    for (const std::uint32_t q : {kRead, kWrite}) {
        if (isActive(q))
            poolBanks |= index_[q].banks;
    }
    if (channel_.issueCount() != legalStamp_) {
        legalStamp_ = channel_.issueCount();
        legalBanks_ = 0;
    }
    channel_.bankLegality(poolBanks & ~legalBanks_, legal_.data());
    legalBanks_ |= poolBanks;

    for (const std::uint32_t q : {kRead, kWrite}) {
        if (!isActive(q))
            continue;
        const BankIndex &ix = index_[q];
        // A hit waits on the queue's column command, any other request
        // on its bank's ACT or PRE.
        const Tick BankLegality::*cas =
            q == kWrite ? &BankLegality::wr : &BankLegality::rd;
        for (std::uint64_t m = ix.banks; m; m &= m - 1) {
            const unsigned bi = lowestSetBit(m);
            const BankLegality &l = legal_[bi];
            const std::vector<Request *> &reqs = ix.reqs[bi];
            const Tick casAt = l.*cas;
            if (!((ix.gatedBanks >> bi) & 1)) {
                const Tick hitsAt = ix.hits[bi] > 0 ? casAt : kMaxTick;
                const Tick othersAt =
                    reqs.size() > ix.hits[bi] ? l.actPre : kMaxTick;
                const Tick bankAt = hitsAt < othersAt ? hitsAt : othersAt;
                consider(bankAt);
                if (bankAt > now)
                    continue; // Nothing here is legal yet: no walk.
            }
            for (Request *req : reqs) {
                Candidate c;
                c.req = req;
                Tick at = l.actPre;
                if (req->coord.row == l.row) {
                    c.cmd = req->isWrite ? DramCommandType::Write
                                         : DramCommandType::Read;
                    c.isRowHit = true;
                    at = casAt;
                } else {
                    c.cmd = l.row == Bank::kNoRow
                                ? DramCommandType::Activate
                                : DramCommandType::Precharge;
                }
                // A backend-imposed earliest-service tick (a remap
                // migration in flight over this request's slot) delays
                // whichever command the request needs next. Zero for
                // every flat-backend request, whose banks skip this
                // walk unless something is legal.
                if (req->availableAt > at)
                    at = req->availableAt;
                consider(at);
                if (at <= now)
                    insertInPoolOrder(c);
            }
        }
    }
}

void
MemController::insertInPoolOrder(const Candidate &c)
{
    // Pool order: the read queue first, then enqueue sequence. Each
    // bank's requests arrive in order, so the walk back is short.
    const auto before = [](const Request *a, const Request *b) {
        if (a->isWrite != b->isWrite)
            return b->isWrite;
        return static_cast<std::int32_t>(a->seq - b->seq) < 0;
    };
    std::size_t i = cands_.size();
    cands_.push_back(c);
    for (; i > 0 && before(c.req, cands_[i - 1].req); --i)
        cands_[i] = cands_[i - 1];
    cands_[i] = c;
}

void
MemController::removeFromQueue(std::vector<Request *> &q, Request *req)
{
    auto it = std::find(q.begin(), q.end(), req);
    mc_assert(it != q.end(), "request not in its queue");
    q.erase(it);
}

void
MemController::serviceCas(Request *req, Tick now, Tick dataReadyAt)
{
    // Classify the row outcome for the hit-rate statistics.
    if (req->preIssued) {
        req->outcome = RowOutcome::Conflict;
        ++stats_.rowConflicts;
    } else if (req->actIssued) {
        req->outcome = RowOutcome::Miss;
        ++stats_.rowMisses;
    } else {
        req->outcome = RowOutcome::Hit;
        ++stats_.rowHits;
    }

    scheduler_->onRequestServiced(*req);
    if (req->isWrite) {
        removeFromQueue(writeQ_, req);
        indexRemove(req);
        stats_.writeQueueLen.update(now,
                                    static_cast<double>(writeQ_.size()));
        ++stats_.servedWrites;
        req->completedAt = now;
        if (onComplete_)
            onComplete_(req, now);
    } else {
        removeFromQueue(readQ_, req);
        indexRemove(req);
        stats_.readQueueLen.update(now, static_cast<double>(readQ_.size()));
        ++stats_.servedReads;
        req->completedAt = dataReadyAt;
        responses_.push({dataReadyAt, req});
    }
}

void
MemController::recordPrecharge(std::uint32_t bankIndex, const Bank &bank)
{
    stats_.activationAccesses.sample(bank.accessesThisActivation());
    pagePolicy_->onPrecharge(bankIndex, bank.openRow(),
                             bank.accessesThisActivation());
    for (BankIndex &ix : index_) {
        ix.totalHits -= ix.hits[bankIndex];
        ix.hits[bankIndex] = 0;
    }
}

bool
MemController::issueCandidate(const Candidate &cand, Tick now)
{
    Request *req = cand.req;
    switch (cand.cmd) {
      case DramCommandType::Precharge: {
        const Bank &bank = channel_.bank(req->coord.rank, req->coord.bank);
        recordPrecharge(req->bankIndex, bank);
        channel_.issue(
            DramCommand::precharge(req->coord.rank, req->coord.bank), now);
        req->preIssued = true;
        return true;
      }
      case DramCommandType::Activate:
        channel_.issue(DramCommand::activate(req->coord), now);
        indexActivate(req->bankIndex, req->coord.row);
        pagePolicy_->onActivate(req->bankIndex, req->coord.row);
        req->actIssued = true;
        return true;
      case DramCommandType::Read: {
        const auto res = channel_.issue(DramCommand::read(req->coord), now);
        serviceCas(req, now, res.dataReadyAt);
        return true;
      }
      case DramCommandType::Write:
        channel_.issue(DramCommand::write(req->coord), now);
        serviceCas(req, now, Tick{});
        return true;
      default:
        mc_panic("unexpected candidate command");
    }
    return false;
}

bool
MemController::tryPolicyPrecharge(Tick now, Tick *nextCloseEvent)
{
    const auto consider = [nextCloseEvent](Tick t) {
        if (nextCloseEvent && t < *nextCloseEvent)
            *nextCloseEvent = t;
    };
    // Open banks in ascending bank index, i.e. rank-major order.
    for (std::uint64_t m = channel_.openBankMask(); m; m &= m - 1) {
        const unsigned bi = lowestSetBit(m);
        const BankSlot &s = channel_.slot(bi);
        const Bank &bank = channel_.bank(s.rank, s.bank);
        PageQuery q;
        q.bank = bi;
        q.openRow = bank.openRow();
        q.accessesThisActivation = bank.accessesThisActivation();
        q.now = now;
        q.lastAccessAt = bank.lastAccessAt();
        std::size_t hits = 0, pending = 0;
        for (const std::uint32_t qi : {kRead, kWrite}) {
            if (isActive(qi)) {
                hits += index_[qi].hits[bi];
                pending += index_[qi].reqs[bi].size();
            }
        }
        q.pendingHit = hits > 0;
        q.pendingConflict = pending > hits;
        if (!pagePolicy_->shouldClose(q)) {
            consider(pagePolicy_->nextCloseEventAt(q));
            continue;
        }
        const auto pre = DramCommand::precharge(s.rank, s.bank);
        const Tick legalAt = channel_.nextLegalAt(pre, now);
        if (legalAt > now) {
            consider(legalAt);
            continue;
        }
        recordPrecharge(bi, bank);
        channel_.issue(pre, now);
        return true;
    }
    return false;
}

Tick
MemController::tick(Tick now)
{
    const Tick nextCycle = now + clk_.dramToTicks(1);
    deliverResponses(now);
    updateDrainMode(now);

    SchedulerContext ctx;
    ctx.numCores = numCores_;
    ctx.readQueueLen = readQ_.size();
    ctx.writeQueueLen = writeQ_.size();
    ctx.drainingWrites = drainingWrites_;
    if (scheduler_->unifiedQueues()) {
        activeQueues_ = 1u << kRead | 1u << kWrite;
        ctx.pool = PoolView(readQ_, writeQ_);
    } else if (drainingWrites_) {
        activeQueues_ = 1u << kWrite;
        ctx.pool = PoolView(writeQ_);
    } else {
        activeQueues_ = 1u << kRead;
        ctx.pool = PoolView(readQ_);
    }
    scheduler_->tick(now, ctx);

    // Time-weighted queue statistics observe every executed cycle;
    // skipped cycles leave the piecewise-constant value untouched, so
    // the next update accrues the identical area.
    stats_.readQueueLen.update(now, static_cast<double>(readQ_.size()));
    stats_.writeQueueLen.update(now, static_cast<double>(writeQ_.size()));

    poolLegalAt_ = kMaxTick;
    if (tryRefresh(now))
        return nextCycle;

    if (!ctx.pool.empty()) {
        buildCandidates(now);
        for (const std::uint32_t q : {kRead, kWrite}) {
            if (isActive(q))
                ctx.pendingHits += index_[q].totalHits;
        }
        const int pick = scheduler_->choose(cands_, now, ctx);
        if (pick >= 0) {
            mc_assert(pick < static_cast<int>(cands_.size()),
                      "scheduler chose a candidate it was not offered");
            issueCandidate(cands_[pick], now);
            return nextCycle;
        }
    }
    Tick policyCloseEvent = kMaxTick;
    if (tryPolicyPrecharge(now, &policyCloseEvent))
        return nextCycle;

    // Quiescent cycle: nothing issued and nothing can issue before the
    // next event. Ticks in between would be exact no-ops.
    const Tick ev = nextEventAt(now, policyCloseEvent);
    return ev > nextCycle ? ev : nextCycle;
}

Tick
MemController::nextEventAt(Tick now, Tick policyCloseEvent)
{
    Tick ev = kMaxTick;
    const auto consider = [&ev](Tick t) {
        if (t < ev)
            ev = t;
    };

    if (!responses_.empty())
        consider(responses_.top().readyAt);

    consider(scheduler_->nextEventAt(now));

    // A refresh already due but blocked (open bank awaiting its
    // precharge window) must retry every cycle.
    if (channel_.refreshDueRank(now) >= 0)
        return now + clk_.dramToTicks(1);
    consider(channel_.nextRefreshDueAt());

    // First tick any pool request's next command becomes legal, from
    // this cycle's buildCandidates() pass.
    consider(poolLegalAt_);

    // Parked writes enter the idle drain once reads have been absent
    // for writeIdleDrainCycles (the only time-driven drain flip).
    if (!drainingWrites_ && readQ_.empty() && !writeQ_.empty()) {
        consider(lastReadPendingAt_ +
                 clk_.dramToTicks(cfg_.writeIdleDrainCycles));
    }

    // Page-policy closures of open banks: a close already wanted waits
    // on precharge legality, otherwise on the policy's own deadline —
    // computed by this cycle's tryPolicyPrecharge() scan.
    consider(policyCloseEvent);
    return ev;
}

} // namespace mcsim
