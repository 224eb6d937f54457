/**
 * @file
 * DRAM page (row-buffer) management policy interface.
 *
 * The policy decides when an open row should be *proactively* closed.
 * Conflict-driven closure (a PRE issued because a queued request needs
 * a different row) is part of request service and happens regardless
 * of the policy; the policy's shouldClose() controls idle closure.
 */

#ifndef CLOUDMC_MEM_PAGE_POLICY_HH
#define CLOUDMC_MEM_PAGE_POLICY_HH

#include <cstdint>

#include "common/types.hh"

namespace mcsim {

/** Snapshot of one open bank's state for a closure decision. */
struct PageQuery
{
    std::uint32_t bank = 0; ///< Bank within the channel (bankIndex).
    std::uint64_t openRow = 0;
    std::uint32_t accessesThisActivation = 0;
    bool pendingHit = false;      ///< Pool has a request for the open row.
    bool pendingConflict = false; ///< Pool has a request for another row.
    Tick now;
    Tick lastAccessAt;
};

/** Abstract page management policy. */
class PagePolicy
{
  public:
    virtual ~PagePolicy() = default;

    /** Should the controller issue an idle PRE to this bank now? */
    virtual bool shouldClose(const PageQuery &q) = 0;

    /**
     * Event-kernel contract: the earliest tick > q.now at which
     * shouldClose() could flip from false to true with the bank and
     * queue state in @p q unchanged. Policies that decide purely on
     * state (every policy except the timer) can only flip on a state
     * change, which re-arms the kernel anyway, so the default returns
     * kMaxTick. Time-driven policies return their deadline; an early
     * (conservative) answer is always safe, a late one is not.
     */
    virtual Tick
    nextCloseEventAt(const PageQuery &q) const
    {
        (void)q;
        return kMaxTick;
    }

    /** A row was activated in a bank (a Request::bankIndex). */
    virtual void onActivate(std::uint32_t, std::uint64_t) {}

    /**
     * A row of a bank (a Request::bankIndex) was closed after
     * @p accesses column accesses (>= 1 unless the activation was
     * wasted).
     */
    virtual void onPrecharge(std::uint32_t, std::uint64_t, std::uint32_t) {}
};

} // namespace mcsim

#endif // CLOUDMC_MEM_PAGE_POLICY_HH
