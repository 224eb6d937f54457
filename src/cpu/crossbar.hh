/**
 * @file
 * Fixed-latency crossbar link model.
 *
 * The scale-out pod uses a 16x4 crossbar between cores and LLC banks
 * and a link from the LLC to the memory controllers. The paper never
 * varies the NoC, so cloudmc models each traversal as a fixed latency
 * with unlimited bandwidth: a FIFO of (ready tick, payload) pairs.
 * Port contention would shift all configurations equally and is
 * deliberately left out.
 */

#ifndef CLOUDMC_CPU_CROSSBAR_HH
#define CLOUDMC_CPU_CROSSBAR_HH

#include <deque>
#include <utility>

#include "common/types.hh"

namespace mcsim {

/** Constant-delay in-order delivery channel. */
template <typename Payload>
class CrossbarLink
{
  public:
    explicit CrossbarLink(TickSpan latencyTicks) : latency_(latencyTicks) {}

    /** Inject a payload at @p now; it is deliverable at now+latency. */
    void
    push(Tick now, Payload payload)
    {
        fifo_.push_back({now + latency_, std::move(payload)});
    }

    /** True when a payload is deliverable at @p now. */
    bool
    ready(Tick now) const
    {
        return !fifo_.empty() && fifo_.front().first <= now;
    }

    /** Remove and return the front payload (must be ready()). */
    Payload
    pop()
    {
        Payload p = std::move(fifo_.front().second);
        fifo_.pop_front();
        return p;
    }

    /**
     * Tick at which the next payload becomes deliverable; kMaxTick
     * when the link is empty. Delivery is in-order, so the head entry
     * is always the earliest.
     */
    Tick
    nextReadyAt() const
    {
        return fifo_.empty() ? kMaxTick : fifo_.front().first;
    }

    std::size_t size() const { return fifo_.size(); }
    TickSpan latency() const { return latency_; }

  private:
    TickSpan latency_;
    std::deque<std::pair<Tick, Payload>> fifo_;
};

} // namespace mcsim

#endif // CLOUDMC_CPU_CROSSBAR_HH
