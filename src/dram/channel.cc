#include "channel.hh"

#include "common/bitutils.hh"
#include "common/log.hh"

namespace mcsim {

namespace {

Tick
maxT(Tick a, Tick b)
{
    return a > b ? a : b;
}

} // namespace

const char *
dramCommandName(DramCommandType t)
{
    switch (t) {
      case DramCommandType::Activate: return "ACT";
      case DramCommandType::Read: return "RD";
      case DramCommandType::Write: return "WR";
      case DramCommandType::Precharge: return "PRE";
      case DramCommandType::Refresh: return "REF";
    }
    return "???";
}

Channel::Channel(const DramGeometry &geom, const DramTimings &timings,
                 bool enableRefresh, const ClockDomains &clk)
    : geom_(geom), tm_(timings), clk_(clk)
{
    geom_.validate();
    mc_assert(!tm_.perBankRefresh || tm_.tRFCpb > 0,
              "per-bank refresh needs a nonzero tRFCpb");
    ranks_.reserve(geom_.ranksPerChannel);
    for (std::uint32_t r = 0; r < geom_.ranksPerChannel; ++r)
        ranks_.emplace_back(geom_.banksPerRank, geom_.bankGroupsPerRank);
    for (std::uint32_t bi = 0;
         bi < geom_.ranksPerChannel * geom_.banksPerRank; ++bi) {
        BankSlot &s = slots_[bi];
        s.rank = static_cast<std::uint8_t>(bi / geom_.banksPerRank);
        s.bank = static_cast<std::uint8_t>(bi % geom_.banksPerRank);
        s.group = static_cast<std::uint8_t>(geom_.bankGroupOf(s.bank));
    }
    rankOpenBanks_.assign(geom_.ranksPerChannel, 0);
    rankActiveSince_.assign(geom_.ranksPerChannel, Tick{});
    if (enableRefresh) {
        // Per-bank refresh spreads the rank's tREFI budget round-robin
        // over its banks (tREFIpb = tREFI / banks).
        const TickSpan interval = tm_.perBankRefresh
                                      ? dct(tm_.tREFI) / geom_.banksPerRank
                                      : dct(tm_.tREFI);
        for (std::uint32_t r = 0; r < geom_.ranksPerChannel; ++r) {
            // Stagger ranks so refreshes do not pile up on one tick.
            const Tick firstDue =
                Tick{} + interval + r * (interval / geom_.ranksPerChannel);
            ranks_[r].scheduleRefresh(firstDue, interval);
        }
    }
}

bool
Channel::canIssueCas(const DramCommand &cmd, Tick now, bool isRead) const
{
    const Rank &rk = ranks_[cmd.rank];
    const Bank &bk = rk.bank(cmd.bank);
    if (!bk.isOpen() || bk.openRow() != cmd.row)
        return false;
    const std::uint32_t group = groupOf(cmd);
    if (now < rk.casAllowedAt(group)) // tCCD_L same-group floor.
        return false;
    if (isRead) {
        if (now < bk.rdAllowedAt() || now < rk.rdAllowedAt(group) ||
            now < nextRdAt_) {
            return false;
        }
    } else {
        if (now < bk.wrAllowedAt() || now < nextWrAt_)
            return false;
    }
    // Data-bus availability, including the rank-switch gap.
    Tick dataStart = now + (isRead ? ticksRd() : ticksWr());
    Tick busFree = dataBusFreeAt_;
    if (lastDataRank_ >= 0 &&
        lastDataRank_ != static_cast<int>(cmd.rank)) {
        busFree += dct(tm_.tCS);
    }
    return dataStart >= busFree;
}

bool
Channel::canIssue(const DramCommand &cmd, Tick now) const
{
    if (now < cmdBusFreeAt_)
        return false;
    mc_assert(cmd.rank < ranks_.size(), "rank out of range");
    const Rank &rk = ranks_[cmd.rank];

    switch (cmd.type) {
      case DramCommandType::Activate: {
        const Bank &bk = rk.bank(cmd.bank);
        return !bk.isOpen() && now >= bk.actAllowedAt() &&
               now >= rk.actAllowedAt(groupOf(cmd));
      }
      case DramCommandType::Read:
        return canIssueCas(cmd, now, true);
      case DramCommandType::Write:
        return canIssueCas(cmd, now, false);
      case DramCommandType::Precharge: {
        const Bank &bk = rk.bank(cmd.bank);
        return bk.isOpen() && now >= bk.preAllowedAt();
      }
      case DramCommandType::Refresh: {
        if (tm_.perBankRefresh) {
            const Bank &bk = rk.bank(cmd.bank);
            return !bk.isOpen() && now >= bk.actAllowedAt();
        }
        if (!rk.allBanksClosed())
            return false;
        for (std::uint32_t b = 0; b < rk.numBanks(); ++b) {
            if (now < rk.bank(b).actAllowedAt())
                return false;
        }
        return true;
      }
    }
    return false;
}

IssueResult
Channel::issue(const DramCommand &cmd, Tick now)
{
    mc_assert(canIssue(cmd, now), "illegal ", dramCommandName(cmd.type),
              " to rank ", cmd.rank, " bank ", cmd.bank, " at tick ", now);

    if (hook_)
        hook_(cmd, now);

    Rank &rk = ranks_[cmd.rank];
    IssueResult res;
    ++issued_;
    cmdBusFreeAt_ = now + dct(1);

    const auto onCas = [this, &cmd, &rk](Tick at) {
        const std::uint32_t group = groupOf(cmd);
        rk.casIssued(at, dct(tm_.tCCDL), group);
        const int key =
            static_cast<int>(cmd.rank * geom_.bankGroupsPerRank + group);
        if (key == lastCasGroupKey_)
            ++stats_.casSameGroup;
        lastCasGroupKey_ = key;
    };

    switch (cmd.type) {
      case DramCommandType::Activate:
        rk.bank(cmd.bank).activate(cmd.row, now,
                                   dct(tm_.tRCD),
                                   dct(tm_.tRAS),
                                   dct(tm_.tRC));
        rk.activated(now, dct(tm_.tRRD), dct(tm_.tRRDL),
                     dct(tm_.tFAW), groupOf(cmd));
        openBanks_ |= 1ull << (cmd.rank * geom_.banksPerRank + cmd.bank);
        if (rankOpenBanks_[cmd.rank]++ == 0)
            rankActiveSince_[cmd.rank] = now;
        ++stats_.activates;
        break;

      case DramCommandType::Read: {
        rk.bank(cmd.bank).read(now, dct(tm_.tRTP));
        const Tick dataStart = now + ticksRd();
        dataBusFreeAt_ = dataStart + ticksBurst();
        lastDataRank_ = static_cast<int>(cmd.rank);
        nextRdAt_ = now + dct(tm_.tCCD);
        // tCCD_S spaces any pair of column commands on the channel
        // (the same-group tCCD_L floor lives in the rank); tRTW covers
        // the read-to-write bus turnaround on top of it.
        nextWrAt_ = std::max(nextWrAt_,
                             now + dct(
                                       std::max(tm_.tRTW, tm_.tCCD)));
        onCas(now);
        stats_.dataBusBusyTicks += ticksBurst();
        ++stats_.reads;
        // Stacked parts add the vault-to-logic-layer TSV crossing on
        // the data return; tTSV = 0 (flat JEDEC parts) is a no-op. The
        // vault-local data bus frees at the burst end regardless.
        res.dataReadyAt = dataStart + ticksBurst() + dct(tm_.tTSV);
        break;
      }

      case DramCommandType::Write: {
        rk.bank(cmd.bank).write(
            now, ticksWr() + ticksBurst() + dct(tm_.tWR));
        const Tick dataStart = now + ticksWr();
        dataBusFreeAt_ = dataStart + ticksBurst();
        lastDataRank_ = static_cast<int>(cmd.rank);
        nextWrAt_ = now + dct(tm_.tCCD);
        // Same-rank write-to-read is gated by tWTR inside the rank; the
        // channel-level tCCD_S floor covers cross-rank read-after-write.
        nextRdAt_ = std::max(nextRdAt_, now + dct(tm_.tCCD));
        rk.wrote(now, ticksWr() + ticksBurst() + dct(tm_.tWTR),
                 ticksWr() + ticksBurst() + dct(tm_.tWTRL),
                 groupOf(cmd));
        onCas(now);
        stats_.dataBusBusyTicks += ticksBurst();
        ++stats_.writes;
        break;
      }

      case DramCommandType::Precharge:
        rk.bank(cmd.bank).precharge(now, dct(tm_.tRP));
        openBanks_ &= ~(1ull << (cmd.rank * geom_.banksPerRank + cmd.bank));
        mc_assert(rankOpenBanks_[cmd.rank] > 0, "PRE with no open bank");
        if (--rankOpenBanks_[cmd.rank] == 0) {
            stats_.rankActiveTicks +=
                now - std::max(rankActiveSince_[cmd.rank],
                               stats_.statsStartTick);
        }
        ++stats_.precharges;
        break;

      case DramCommandType::Refresh:
        if (tm_.perBankRefresh)
            rk.refreshBank(cmd.bank, now, dct(tm_.tRFCpb));
        else
            rk.refresh(now, dct(tm_.tRFC));
        ++stats_.refreshes;
        break;
    }
    return res;
}

void
Channel::resetStats(Tick now)
{
    stats_.reset(now);
    // In-flight active periods restart at the window boundary so the
    // new window's active-standby time never reaches back before it.
    for (std::uint32_t r = 0; r < rankOpenBanks_.size(); ++r) {
        if (rankOpenBanks_[r] > 0)
            rankActiveSince_[r] = now;
    }
}

Tick
Channel::nextRefreshDueAt() const
{
    Tick due = kMaxTick;
    for (const Rank &rk : ranks_) {
        if (rk.refreshEnabled() && rk.nextRefreshDue() < due)
            due = rk.nextRefreshDue();
    }
    return due;
}

Channel::RankFloors
Channel::rankFloors(std::uint32_t rank) const
{
    // Data-bus availability: dataStart(t) = t + CAS lead must be at or
    // past the (rank-switch adjusted) bus-free tick.
    Tick busFree = dataBusFreeAt_;
    if (lastDataRank_ >= 0 && lastDataRank_ != static_cast<int>(rank))
        busFree += dct(tm_.tCS);
    const auto dataFloor = [busFree](TickSpan lead) {
        return busFree - Tick{} > lead ? busFree - lead : Tick{};
    };
    return {cmdBusFreeAt_,
            maxT(maxT(cmdBusFreeAt_, nextRdAt_), dataFloor(ticksRd())),
            maxT(maxT(cmdBusFreeAt_, nextWrAt_), dataFloor(ticksWr()))};
}

BankLegality
Channel::legalityOf(const RankFloors &floors, const Rank &rk,
                    const BankSlot &s) const
{
    const Bank &bk = rk.bank(s.bank);
    if (!bk.isOpen()) {
        return {maxT(floors.cmd,
                     maxT(bk.actAllowedAt(), rk.actAllowedAt(s.group))),
                kMaxTick, kMaxTick, Bank::kNoRow};
    }
    const Tick cas = rk.casAllowedAt(s.group); // tCCD_L floor.
    return {maxT(floors.cmd, bk.preAllowedAt()),
            maxT(maxT(floors.rd, cas),
                 maxT(bk.rdAllowedAt(), rk.rdAllowedAt(s.group))),
            maxT(maxT(floors.wr, cas), bk.wrAllowedAt()), bk.openRow()};
}

void
Channel::bankLegality(std::uint64_t bankMask, BankLegality *out) const
{
    // Bank indices ascend rank-major, so each rank's floors are
    // computed once.
    int rank = -1;
    RankFloors floors{};
    for (; bankMask; bankMask &= bankMask - 1) {
        const unsigned bi = lowestSetBit(bankMask);
        const BankSlot &s = slots_[bi];
        if (s.rank != rank) {
            rank = s.rank;
            floors = rankFloors(s.rank);
        }
        out[bi] = legalityOf(floors, ranks_[s.rank], s);
    }
}

Tick
Channel::nextLegalAt(const DramCommand &cmd, Tick now) const
{
    // The threshold form of canIssue(): every rule is a "now >= t"
    // comparison, so the legal tick is the largest t (test_event_kernel
    // cross-checks the two, and bankLegality() against both).
    const Rank &rk = ranks_[cmd.rank];
    Tick t;
    if (cmd.type == DramCommandType::Refresh) {
        t = cmdBusFreeAt_;
        if (tm_.perBankRefresh) {
            const Bank &bk = rk.bank(cmd.bank);
            if (bk.isOpen())
                return kMaxTick;
            t = maxT(t, bk.actAllowedAt());
        } else {
            if (!rk.allBanksClosed())
                return kMaxTick;
            for (std::uint32_t b = 0; b < rk.numBanks(); ++b)
                t = maxT(t, rk.bank(b).actAllowedAt());
        }
        return maxT(t, now);
    }

    // A command the bank's state rules out needs a state change first.
    const Bank &bk = rk.bank(cmd.bank);
    switch (cmd.type) {
      case DramCommandType::Activate:
        if (bk.isOpen())
            return kMaxTick;
        break;
      case DramCommandType::Precharge:
        if (!bk.isOpen())
            return kMaxTick;
        break;
      default:
        if (!bk.isOpen() || bk.openRow() != cmd.row)
            return kMaxTick;
        break;
    }
    const BankLegality l =
        legalityOf(rankFloors(cmd.rank), rk, slots_[cmd.bank]);
    switch (cmd.type) {
      case DramCommandType::Read: t = l.rd; break;
      case DramCommandType::Write: t = l.wr; break;
      default: t = l.actPre; break;
    }
    return maxT(t, now);
}

int
Channel::refreshDueRank(Tick now) const
{
    for (std::uint32_t r = 0; r < ranks_.size(); ++r) {
        if (ranks_[r].refreshEnabled() && now >= ranks_[r].nextRefreshDue())
            return static_cast<int>(r);
    }
    return -1;
}

} // namespace mcsim
