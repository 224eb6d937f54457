/**
 * @file
 * A DRAM channel: ranks plus the shared command and data buses.
 *
 * The channel is the single authority on command legality. The memory
 * controller proposes a command at the current tick; canIssue() checks
 * every device- and bus-level constraint and issue() applies the state
 * transitions. Constraints modeled:
 *
 *  - bank: tRCD, tRAS, tRC, tRP, tRTP, write recovery (tCWL+tBURST+tWR)
 *  - bank group: tRRD_L ACT spacing, tCCD_L CAS spacing, tWTR_L
 *          write-to-read turnaround (all within one rank's group)
 *  - rank: tRRD_S, tFAW (counted across groups), write-to-read
 *          turnaround (tCWL+tBURST+tWTR_S), refresh (tREFI staggered
 *          per rank; all-bank tRFC, or round-robin per-bank tRFCpb
 *          blocking only the refreshed bank)
 *  - channel: one command per tCK, tCCD_S CAS spacing, read-to-write
 *          turnaround (tRTW), data-bus occupancy, rank-to-rank data
 *          switch penalty (tCS)
 *
 * Simplification vs. real devices: the write-to-read turnaround is
 * applied per rank (correct) while read-after-write to a *different*
 * rank is gated by the data bus, tCS, and a channel-wide tCCD_S floor
 * between any pair of column commands, which matches DDR3/DDR4
 * behavior closely enough for scheduling studies. A per-bank refresh
 * is not charged against tRRD/tFAW (JEDEC counts REFpb as an
 * activation; both the channel and the TimingChecker omit that).
 */

#ifndef CLOUDMC_DRAM_CHANNEL_HH
#define CLOUDMC_DRAM_CHANNEL_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "commands.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram_params.hh"
#include "rank.hh"

namespace mcsim {

/** Result of issuing a command. */
struct IssueResult
{
    /** For Read: tick at which the last data beat is on the bus (the
     *  request's data is complete). Zero for non-read commands. */
    Tick dataReadyAt;
};

/**
 * The earliest tick each command a bank can take next becomes legal,
 * assuming no further command issues (see Channel::bankLegality()).
 */
struct BankLegality
{
    Tick actPre; ///< ACT while the bank is closed, PRE while it is open.
    Tick rd;     ///< RD to the open row; kMaxTick while closed.
    Tick wr;     ///< WR to the open row; kMaxTick while closed.
    std::uint64_t row; ///< The open row; Bank::kNoRow while closed.
};

/** Where a bank index (rank * banksPerRank + bank) sits. */
struct BankSlot
{
    std::uint8_t rank = 0;
    std::uint8_t bank = 0;  ///< Bank within the rank.
    std::uint8_t group = 0; ///< Bank group within the rank.
};

/** Channel statistics (reset with resetStats()). */
struct ChannelStats
{
    std::uint64_t activates = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t precharges = 0;
    std::uint64_t refreshes = 0;
    /** CAS commands issued to the same (rank, bank group) as the
     *  immediately preceding CAS on this channel — the population the
     *  tCCD_L floor (rather than tCCD_S) spaces. On a single-group
     *  device this counts same-rank back-to-back CAS. */
    std::uint64_t casSameGroup = 0;
    TickSpan dataBusBusyTicks;
    /** Sum over ranks of time spent with at least one bank open
     *  (active-standby time, the energy model's background input). */
    TickSpan rankActiveTicks;
    Tick statsStartTick;

    void
    reset(Tick now)
    {
        activates = reads = writes = precharges = refreshes = 0;
        casSameGroup = 0;
        dataBusBusyTicks = TickSpan{0};
        rankActiveTicks = TickSpan{0};
        statsStartTick = now;
    }

    /** Data-bus utilization in [0,1] over the measurement window. */
    double
    busUtilization(Tick now) const
    {
        const TickSpan elapsed = now - statsStartTick;
        return elapsed.count()
                   ? static_cast<double>(dataBusBusyTicks.count()) /
                         static_cast<double>(elapsed.count())
                   : 0.0;
    }
};

/** One DRAM channel with its ranks and buses. */
class Channel
{
  public:
    /**
     * @param clk Clock domains; timing fields (in DRAM cycles) are
     *        converted to ticks on this grid.
     */
    Channel(const DramGeometry &geom, const DramTimings &timings,
            bool enableRefresh, const ClockDomains &clk = kBaselineClocks);

    /** True iff @p cmd satisfies every timing constraint at @p now. */
    bool canIssue(const DramCommand &cmd, Tick now) const;

    /**
     * Apply @p cmd at @p now. The caller must have checked canIssue();
     * violating constraints is a simulator bug and panics.
     */
    IssueResult issue(const DramCommand &cmd, Tick now);

    /** Bank accessor used by the controller for open-row queries. */
    const Bank &
    bank(std::uint32_t rank, std::uint32_t bankIdx) const
    {
        return ranks_[rank].bank(bankIdx);
    }

    /** Rank, bank and group of bank index @p bankIndex, from a table
     *  built at construction (no division on the hot path). */
    const BankSlot &slot(std::uint32_t bankIndex) const
    {
        return slots_[bankIndex];
    }

    /** Bit rank * banksPerRank + bank set for every open bank. */
    std::uint64_t openBankMask() const { return openBanks_; }

    /** Commands issued so far. Legality depends on nothing else, so
     *  a legal tick computed at one count holds until it moves. */
    std::uint64_t issueCount() const { return issued_; }

    Rank &rank(std::uint32_t r) { return ranks_[r]; }
    const Rank &rank(std::uint32_t r) const { return ranks_[r]; }
    std::uint32_t numRanks() const
    {
        return static_cast<std::uint32_t>(ranks_.size());
    }

    /** Rank index whose refresh deadline has passed, or -1. */
    int refreshDueRank(Tick now) const;

    /** True when this channel refreshes one bank at a time (REFpb). */
    bool perBankRefresh() const { return tm_.perBankRefresh; }

    /** Earliest refresh deadline over all ranks; kMaxTick when
     *  refresh is disabled. */
    Tick nextRefreshDueAt() const;

    /**
     * Event-kernel contract: the earliest tick >= now at which
     * canIssue(cmd, ·) would hold, assuming no further command issues
     * on this channel in between. Every constraint canIssue() checks
     * is a "now >= threshold" comparison against state that only
     * command issues move, so the result is exact under that
     * assumption. Returns kMaxTick when the command needs a bank state
     * change first (e.g. an activate to an open bank), which during an
     * idle-skip window cannot happen.
     */
    Tick nextLegalAt(const DramCommand &cmd, Tick now) const;

    /**
     * For every bank index set in @p bankMask, the legal ticks of the
     * commands that bank can take next, into out[bankIndex] (the
     * other entries are left alone). Without the clamp to now, so for
     * ACT, PRE, RD and WR nextLegalAt(cmd, now) is max(now, the
     * matching field): both read the same rules. The channel and rank
     * terms are computed once per rank, not once per bank.
     */
    void bankLegality(std::uint64_t bankMask, BankLegality *out) const;

    ChannelStats &stats() { return stats_; }
    const ChannelStats &stats() const { return stats_; }
    void resetStats(Tick now);

    /**
     * Observe every command as it issues (after legality checks, before
     * state updates). For protocol validation tests and command-trace
     * debugging; unset in normal operation.
     */
    using CommandHook = std::function<void(const DramCommand &, Tick)>;
    void setCommandHook(CommandHook hook) { hook_ = std::move(hook); }

    const DramTimings &timings() const { return tm_; }
    const DramGeometry &geometry() const { return geom_; }
    const ClockDomains &clocks() const { return clk_; }

  private:
    /** DRAM cycles to ticks on this channel's clock grid. */
    TickSpan
    dct(std::uint64_t cycles) const
    {
        return clk_.dramToTicks(cycles);
    }
    TickSpan ticksRd() const { return dct(tm_.tCAS); }
    TickSpan ticksWr() const { return dct(tm_.tCWL); }
    TickSpan ticksBurst() const { return dct(tm_.tBURST); }

    bool canIssueCas(const DramCommand &cmd, Tick now, bool isRead) const;

    /** Bank group of a command's bank (geometry convention). */
    std::uint32_t groupOf(const DramCommand &cmd) const
    {
        return slots_[cmd.bank].group;
    }

    /** The channel- and rank-wide floors of one rank's bank commands:
     *  the command bus, tCCD_S/tRTW spacing and the data bus (with
     *  the tCS rank-switch gap). */
    struct RankFloors
    {
        Tick cmd;
        Tick rd;
        Tick wr;
    };
    RankFloors rankFloors(std::uint32_t rank) const;

    /** The one copy of the bank-command rules behind nextLegalAt()
     *  and bankLegality(). */
    BankLegality legalityOf(const RankFloors &floors, const Rank &rk,
                            const BankSlot &s) const;

    DramGeometry geom_;
    DramTimings tm_;
    ClockDomains clk_;
    std::vector<Rank> ranks_;
    /** Indexed by bank index; the first banksPerRank entries double
     *  as the group table of a bank within any rank. */
    std::array<BankSlot, kMaxBanksPerChannel> slots_{};
    std::uint64_t openBanks_ = 0; ///< See openBankMask().
    std::uint64_t issued_ = 0;    ///< See issueCount().

    Tick cmdBusFreeAt_;  ///< One command per tCK.
    Tick nextRdAt_;      ///< tCCD_S spacing between reads.
    Tick nextWrAt_;      ///< tCCD_S spacing + tRTW after reads.
    Tick dataBusFreeAt_; ///< End of the burst in flight.
    int lastDataRank_ = -1;  ///< For the tCS rank-switch penalty.
    int lastCasGroupKey_ = -1; ///< (rank, group) of the last CAS (stats).

    // Active-standby accounting for the energy model.
    std::vector<std::uint32_t> rankOpenBanks_;
    std::vector<Tick> rankActiveSince_;

    CommandHook hook_;

    ChannelStats stats_;
};

} // namespace mcsim

#endif // CLOUDMC_DRAM_CHANNEL_HH
