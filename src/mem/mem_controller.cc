#include "mem_controller.hh"

#include <algorithm>

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
    scheduler_->onRequestArrived(*req);
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

template <typename Fn>
void
MemController::forEachActive(Fn &&fn) const
{
    // Page policies and the scheduler see the *active* transaction
    // pool: the read queue in read mode, the write queue while
    // draining. Parked writes are not serviceable, so treating them as
    // pending conflicts would collapse open-adaptive into
    // close-adaptive whenever the write queue holds a few random
    // writebacks.
    const auto walk = [&fn](const std::vector<Request *> &q) {
        for (Request *req : q)
            fn(req);
    };
    if (scheduler_->unifiedQueues()) {
        walk(readQ_);
        walk(writeQ_);
    } else {
        walk(drainingWrites_ ? writeQ_ : readQ_);
    }
}

void
MemController::buildCandidates(Tick now)
{
    cands_.clear();
    forEachActive([&](Request *req) {
        const Bank &bank = channel_.bank(req->coord.rank, req->coord.bank);
        Candidate c;
        c.req = req;
        if (!bank.isOpen()) {
            c.cmd = DramCommandType::Activate;
            c.legalAt = channel_.nextLegalAt(
                DramCommand::activate(req->coord), now);
        } else if (bank.openRow() == req->coord.row) {
            c.cmd = req->isWrite ? DramCommandType::Write
                                 : DramCommandType::Read;
            c.isRowHit = true;
            const auto cmd = req->isWrite
                                 ? DramCommand::write(req->coord)
                                 : DramCommand::read(req->coord);
            c.legalAt = channel_.nextLegalAt(cmd, now);
        } else {
            c.cmd = DramCommandType::Precharge;
            c.legalAt = channel_.nextLegalAt(
                DramCommand::precharge(req->coord.rank, req->coord.bank),
                now);
        }
        // A backend-imposed earliest-service tick (a remap migration
        // in flight over this request's slot) delays whichever command
        // the request needs next. Zero for every flat-backend request.
        if (req->availableAt > c.legalAt)
            c.legalAt = req->availableAt;
        // nextLegalAt clamps to now, so legality now is equivalent to
        // canIssue() (test_event_kernel cross-checks the two; the
        // availableAt clamp above only moves legalAt past now for
        // mid-migration stacked-backend requests).
        c.issuableNow = c.legalAt <= now;
        cands_.push_back(c);
    });
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
        stats_.writeQueueLen.update(now,
                                    static_cast<double>(writeQ_.size()));
        ++stats_.servedWrites;
        req->completedAt = now;
        if (onComplete_)
            onComplete_(req, now);
    } else {
        removeFromQueue(readQ_, req);
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

MemController::BankPending
MemController::gatherBankPending() const
{
    BankPending bp;
    forEachActive([&](const Request *req) {
        const Bank &bank = channel_.bank(req->coord.rank, req->coord.bank);
        if (!bank.isOpen())
            return;
        const std::uint64_t bit = 1ull << req->bankIndex;
        if (req->coord.row == bank.openRow())
            bp.hit |= bit;
        else
            bp.conflict |= bit;
    });
    return bp;
}

bool
MemController::tryPolicyPrecharge(Tick now, Tick *nextCloseEvent)
{
    const BankPending bp = gatherBankPending();
    const auto consider = [nextCloseEvent](Tick t) {
        if (nextCloseEvent && t < *nextCloseEvent)
            *nextCloseEvent = t;
    };
    for (std::uint32_t r = 0; r < channel_.numRanks(); ++r) {
        const Rank &rank = channel_.rank(r);
        for (std::uint32_t b = 0; b < rank.numBanks(); ++b) {
            const Bank &bank = rank.bank(b);
            if (!bank.isOpen())
                continue;
            PageQuery q;
            q.bank = r * banksPerRank_ + b;
            q.openRow = bank.openRow();
            q.accessesThisActivation = bank.accessesThisActivation();
            q.now = now;
            q.lastAccessAt = bank.lastAccessAt();
            const std::uint64_t bit = 1ull << q.bank;
            q.pendingHit = (bp.hit & bit) != 0;
            q.pendingConflict = (bp.conflict & bit) != 0;
            const auto pre = DramCommand::precharge(r, b);
            if (!pagePolicy_->shouldClose(q)) {
                consider(pagePolicy_->nextCloseEventAt(q));
                continue;
            }
            if (!channel_.canIssue(pre, now)) {
                consider(channel_.nextLegalAt(pre, now));
                continue;
            }
            recordPrecharge(q.bank, bank);
            channel_.issue(pre, now);
            return true;
        }
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
    scheduler_->tick(now, ctx);

    // Time-weighted queue statistics observe every executed cycle;
    // skipped cycles leave the piecewise-constant value untouched, so
    // the next update accrues the identical area.
    stats_.readQueueLen.update(now, static_cast<double>(readQ_.size()));
    stats_.writeQueueLen.update(now, static_cast<double>(writeQ_.size()));

    if (tryRefresh(now))
        return nextCycle;

    buildCandidates(now);
    if (!cands_.empty()) {
        const int pick = scheduler_->choose(cands_, now, ctx);
        if (pick >= 0) {
            mc_assert(pick < static_cast<int>(cands_.size()) &&
                          cands_[pick].issuableNow,
                      "scheduler chose an illegal candidate");
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

    // First tick any queued request's next command becomes legal —
    // already computed by this cycle's buildCandidates() pass.
    for (const Candidate &c : cands_)
        consider(c.legalAt);

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
