/**
 * @file
 * System: assembles cores, caches, crossbar links, memory controllers
 * and DRAM into one simulated scale-out pod and runs the clock.
 *
 * Clocking: the tick grid comes from the SimConfig's ClockDomains.
 * Cores and the cache side step every clocks.ticksPerCore ticks;
 * controllers and DRAM step every clocks.ticksPerDram ticks (the
 * paper's baseline: 250 ps ticks, ratios 2 and 5 for 2 GHz cores over
 * DDR3-1600). run() interleaves the two domains on the common grid.
 *
 * The clock is event-scheduled: advance() walks the clock-domain
 * boundaries directly (any ratio; the boundary pattern repeats every
 * LCM of the two periods) and consults each component's next-event
 * report — blocked cores, crossbar latch ready times, the IO engine's
 * next issue tick, and each controller's tick() return value — to
 * fast-forward now_ across provably idle stretches. Skipped work is
 * accounted lazily (Core::catchUpTo) or is a true no-op, so results
 * are bit-identical to the per-tick reference loop, which is kept
 * behind useReferenceKernel(true) as the golden model for tests.
 *
 * A System runs on one thread; sweeps get their parallelism from
 * running independent Systems concurrently (ExperimentRunner::runAll).
 */

#ifndef CLOUDMC_SIM_SYSTEM_HH
#define CLOUDMC_SIM_SYSTEM_HH

#include <memory>
#include <vector>

#include "common/random.hh"
#include "cpu/core.hh"
#include "cpu/crossbar.hh"
#include "cpu/hierarchy.hh"
#include "mem/backend.hh"
#include "mem/mem_controller.hh"
#include "metrics.hh"
#include "sim_config.hh"
#include "workload/synthetic.hh"

namespace mcsim {

/**
 * Event-kernel execution counters: how much stepping the idle-skip
 * machinery actually avoided. Feeds the bench-layer throughput meter.
 */
struct KernelStats
{
    std::uint64_t coreStepsRun = 0;  ///< Core-domain boundaries stepped.
    // detlint-allow(raw-tick): counts tick() calls, not time
    std::uint64_t coreTicksRun = 0;  ///< Individual Core::tick calls.
    std::uint64_t memStepsRun = 0;   ///< DRAM-domain boundaries stepped.
    // detlint-allow(raw-tick): counts tick() calls, not time
    std::uint64_t ctlTicksRun = 0;   ///< MemController::tick calls.
    std::uint64_t coreBatchRuns = 0; ///< runBatch() calls that advanced.
    // detlint-allow(raw-tick): counts cycles executed, not time
    std::uint64_t coreCyclesBatched = 0; ///< Core cycles run in batches.
};

/** The whole simulated machine. */
class System
{
  public:
    /** Build a system running the given synthetic workload preset. */
    System(const SimConfig &cfg, const WorkloadParams &workload);

    /**
     * Build a system around an externally-owned generator (e.g. trace
     * replay). @p ioParams may still describe a DMA engine.
     */
    System(const SimConfig &cfg, WorkloadGenerator &generator,
           std::uint32_t numCores);

    ~System();
    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Warm up, measure, and return the collected metrics. */
    MetricSet run();

    /** Advance the clock by @p coreCycles (for tests / custom loops). */
    void advance(std::uint64_t coreCycles);

    /**
     * Run the original tick-by-tick loop instead of the event kernel:
     * every core and controller steps on every cycle of its domain.
     * Slow; exists as the golden reference the equivalence tests pit
     * the event kernel against.
     */
    void useReferenceKernel(bool ref) { referenceKernel_ = ref; }

    /** Zero all statistics at the current time. */
    void resetStats();

    /** Collect metrics for the window since the last resetStats(). */
    MetricSet collect() const;

    Tick now() const { return now_; }
    /** The clock domains this system was built on. */
    const ClockDomains &clocks() const { return cfg_.clocks; }
    const KernelStats &kernelStats() const { return kernelStats_; }
    MemController &controller(std::uint32_t ch) { return *controllers_[ch]; }
    std::uint32_t numControllers() const
    {
        return static_cast<std::uint32_t>(controllers_.size());
    }
    CacheHierarchy &hierarchy() { return *hierarchy_; }
    Core &core(std::uint32_t i) { return *cores_[i]; }
    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(cores_.size());
    }

  private:
    /** Closed-loop DMA/IO traffic source (Section "substitutions"). */
    struct IoEngine
    {
        bool enabled = false;
        std::uint32_t window = 0;
        std::uint32_t burstBlocks = 64;
        double writeFrac = 0.3;
        TickSpan thinkTicks;
        Addr bufferBase = 0;
        std::uint64_t bufferBlocks = 0;
        std::uint64_t streamPos = 0;
        std::uint32_t burstLeft = 0;
        std::uint32_t outstanding = 0;
        Tick nextIssueAt;
        Pcg32 rng;
    };

    void build(const SimConfig &cfg, std::uint32_t numCores);
    /** One core-domain step of the reference loop: ticks every core. */
    void coreStep();
    /** coreStep specialized for the event kernel: due-scan + batching. */
    void coreStepEvent();
    void memStep(bool eager);
    void ioStep();
    void referenceAdvance(Tick end);
    /** The event-scheduled kernel (bit-identical to referenceAdvance). */
    void advanceEvent(Tick end);
    /** Flush every core's lazy cycle accounting up to coreCycles_. */
    void syncCores();
    /** Earliest tick the core domain must step (latch or core event). */
    Tick coreEventAt() const;
    /** Earliest tick the memory domain must step. */
    Tick memEventAt() const;
    /** Next tick the IO engine could issue; kMaxTick when it cannot. */
    Tick ioEventAt() const;
    Request *allocRequest(CoreId core, Addr addr, bool isWrite, bool isIo);
    void freeRequest(Request *req);
    void sendMem(CoreId core, Addr blockAddr, bool isWrite);
    void onMemComplete(Request *req, Tick at);

    SimConfig cfg_;
    Tick now_;
    bool referenceKernel_ = false;
    CoreCycle statsStartCycle_;
    CoreCycle coreCycles_;
    /**
     * Exclusive upper bound for Core::runBatch during the current
     * advance() window: the window's final core-cycle count, so
     * batched cores stop exactly where syncCores() and the statistics
     * window close (identical to the reference kernel).
     */
    CoreCycle batchLimit_;
    /**
     * Set when the core side pushes onto toMem_ mid-step, moving the
     * memory-domain event horizon earlier than advance()'s cached copy.
     */
    bool memHorizonDirty_ = true;

    /** Per-controller next-due ticks (tick() return; arrivals re-arm). */
    std::vector<Tick> ctlDueAt_;
    /**
     * Per-core next-act cycles, mirrored from Core::nextActCycle()
     * into one contiguous array so the hot due-scan never touches the
     * idle cores themselves. Updated after every tick and wake.
     */
    std::vector<CoreCycle> coreDueCycle_;
    /** Cached min over coreDueCycle_ in ticks (kMaxTick: all blocked). */
    Tick coreActEventAt_;
    KernelStats kernelStats_;

    std::unique_ptr<SyntheticWorkload> ownedGenerator_;
    WorkloadGenerator *generator_ = nullptr;

    std::unique_ptr<CacheHierarchy> hierarchy_;
    std::vector<std::unique_ptr<Core>> cores_;
    /** The composed memory backend (flat JEDEC or stacked vaults). It
     *  owns the media and the controller queues; routing, capacity,
     *  media statistics and energy all go through it. */
    std::unique_ptr<MemBackend> backend_;
    /** Raw per-queue pointers into backend_ (queue index == the
     *  coord.channel routing index), cached so the kernels'
     *  hot loops stay exactly as they were pre-backend. */
    std::vector<MemController *> controllers_;

    CrossbarLink<Request *> toMem_;
    struct CpuResponse
    {
        CoreId core;
        Addr addr;
    };
    CrossbarLink<CpuResponse> toCpu_;

    IoEngine io_;

    // Request pool.
    std::vector<std::unique_ptr<Request>> requestStorage_;
    std::vector<Request *> freeRequests_;
    std::uint64_t nextRequestId_ = 0;
};

} // namespace mcsim

#endif // CLOUDMC_SIM_SYSTEM_HH
