#include "system.hh"

#include <algorithm>

#include "common/log.hh"

namespace mcsim {

namespace {

constexpr std::uint32_t kBlockBytes = 64;

/** Fixed IO buffer placement: below the 1-channel capacity so DMA
 *  addresses are identical across channel-count sweeps. */
constexpr Addr kIoBufferBase = 7ull << 30;          // 7 GiB
constexpr std::uint64_t kIoBufferBytes = 512 << 20; // 512 MiB

} // namespace

System::System(const SimConfig &cfg, const WorkloadParams &workload)
    : cfg_(cfg), toMem_(cfg.clocks.coreToTicks(cfg.xbarLatencyCycles)),
      toCpu_(cfg.clocks.coreToTicks(cfg.xbarLatencyCycles))
{
    cfg_.numCores = workload.cores;
    cfg_.core.mlpWindow = cfg_.coreMlpOverride ? cfg_.coreMlpOverride
                                               : workload.mlpWindow;
    cfg_.core.storeBufferEntries = workload.storeBufferEntries;

    build(cfg_, cfg_.numCores);
    ownedGenerator_ = std::make_unique<SyntheticWorkload>(
        workload, backend_->capacityBytes());
    generator_ = ownedGenerator_.get();

    if (workload.ioWindow > 0) {
        io_.enabled = true;
        io_.window = workload.ioWindow;
        io_.burstBlocks = workload.ioBurstBlocks;
        io_.writeFrac = workload.ioWriteFrac;
        io_.thinkTicks = cfg_.clocks.dramToTicks(workload.ioThinkDramCycles);
        io_.bufferBase = kIoBufferBase;
        io_.bufferBlocks = kIoBufferBytes / kBlockBytes;
        io_.rng.reseed(workload.seed * 7919 + 17, 0x10);
        mc_assert(kIoBufferBase + kIoBufferBytes <=
                      backend_->capacityBytes(),
                  "IO buffer does not fit in DRAM");
    }

    for (std::uint32_t c = 0; c < cfg_.numCores; ++c) {
        cores_.push_back(std::make_unique<Core>(c, *generator_,
                                                *hierarchy_, cfg_.core));
    }
}

System::System(const SimConfig &cfg, WorkloadGenerator &generator,
               std::uint32_t numCores)
    : cfg_(cfg), toMem_(cfg.clocks.coreToTicks(cfg.xbarLatencyCycles)),
      toCpu_(cfg.clocks.coreToTicks(cfg.xbarLatencyCycles))
{
    cfg_.numCores = numCores;
    build(cfg_, numCores);
    generator_ = &generator;
    for (std::uint32_t c = 0; c < numCores; ++c) {
        cores_.push_back(std::make_unique<Core>(c, *generator_,
                                                *hierarchy_, cfg_.core));
    }
}

System::~System() = default;

void
System::build(const SimConfig &cfg, std::uint32_t numCores)
{
    if (cfg.kernelThreads != 1) {
        mc_fatal("SimConfig::kernelThreads is retired and must be 1 (got ",
                 cfg.kernelThreads, ")");
    }
    backend_ = makeMemBackend(cfg, numCores);
    for (std::uint32_t ch = 0; ch < backend_->numQueues(); ++ch) {
        MemController &mc = backend_->queue(ch);
        mc.setCompletionCallback(
            [this](Request *req, Tick at) { onMemComplete(req, at); });
        controllers_.push_back(&mc);
    }
    hierarchy_ = std::make_unique<CacheHierarchy>(numCores, cfg.hierarchy);
    hierarchy_->setSendMemRead(
        [this](CoreId core, Addr addr) { sendMem(core, addr, false); });
    hierarchy_->setSendMemWrite(
        [this](CoreId core, Addr addr) { sendMem(core, addr, true); });
    hierarchy_->setWake([this](CoreId core, MissKind kind) {
        // Account the blocked stretch under the pre-wake flags before
        // the unblock mutates them.
        cores_[core]->catchUpTo(coreCycles_);
        cores_[core]->missReturned(kind);
        coreDueCycle_[core] = cores_[core]->nextActCycle();
    });
    ctlDueAt_.assign(controllers_.size(), Tick{});
    coreDueCycle_.assign(numCores, CoreCycle{});
}

Request *
System::allocRequest(CoreId core, Addr addr, bool isWrite, bool isIo)
{
    Request *req;
    if (!freeRequests_.empty()) {
        req = freeRequests_.back();
        freeRequests_.pop_back();
    } else {
        requestStorage_.push_back(std::make_unique<Request>());
        req = requestStorage_.back().get();
    }
    *req = Request{};
    req->id = ++nextRequestId_;
    req->core = core;
    req->addr = addr;
    req->isWrite = isWrite;
    req->isIo = isIo;
    // Backend routing (and any remap-policy state it evolves) happens
    // here, on the allocation path: the reference and event kernels
    // allocate requests in the same order at the same ticks, so
    // backend policy decisions are identical under both.
    backend_->route(*req, now_);
    return req;
}

void
System::freeRequest(Request *req)
{
    freeRequests_.push_back(req);
}

void
System::sendMem(CoreId core, Addr blockAddr, bool isWrite)
{
    toMem_.push(now_, allocRequest(core, blockAddr, isWrite, false));
    memHorizonDirty_ = true;
}

void
System::onMemComplete(Request *req, Tick at)
{
    if (req->isIo && !req->isWrite) {
        // IO reads are closed-loop; IO writes are posted (the device
        // got its ack at issue time and never held a window slot).
        mc_assert(io_.outstanding > 0, "spurious IO completion");
        --io_.outstanding;
        io_.nextIssueAt = at + io_.thinkTicks;
    } else if (!req->isIo && !req->isWrite) {
        toCpu_.push(at, {req->core, req->addr});
    }
    freeRequest(req);
}

void
System::ioStep()
{
    if (!io_.enabled || io_.outstanding >= io_.window ||
        now_ < io_.nextIssueAt) {
        return;
    }
    if (io_.burstLeft == 0) {
        io_.streamPos = io_.rng.below64(io_.bufferBlocks);
        io_.burstLeft = io_.burstBlocks;
    }
    const Addr addr = io_.bufferBase + io_.streamPos * kBlockBytes;
    io_.streamPos = (io_.streamPos + 1) % io_.bufferBlocks;
    --io_.burstLeft;
    const bool isWrite = io_.rng.chance(io_.writeFrac);
    toMem_.push(now_, allocRequest(kIoCoreId, addr, isWrite, true));
    if (isWrite) {
        // Posted: the device paces itself on the ack, not on DRAM.
        io_.nextIssueAt = now_ + io_.thinkTicks;
    } else {
        ++io_.outstanding;
    }
}

void
System::coreStep()
{
    while (toCpu_.ready(now_)) {
        const CpuResponse resp = toCpu_.pop();
        hierarchy_->onMemResponse(resp.core, resp.addr);
    }
    const CoreCycle cycle = coreCycles_;
    CoreCycle minAct = kNeverCycle;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        Core &core = *cores_[i];
        core.catchUpTo(cycle);
        core.tick();
        ++kernelStats_.coreTicksRun;
        coreDueCycle_[i] = core.nextActCycle();
        if (coreDueCycle_[i] < minAct)
            minAct = coreDueCycle_[i];
    }
    coreCycles_ += CoreCycles{1};
    ++kernelStats_.coreStepsRun;
    coreActEventAt_ = minAct == kNeverCycle
                          ? kMaxTick
                          : cfg_.clocks.coreToTicks(minAct);
}

void
System::coreStepEvent()
{
    while (toCpu_.ready(now_)) {
        const CpuResponse resp = toCpu_.pop();
        hierarchy_->onMemResponse(resp.core, resp.addr);
    }
    const CoreCycle cycle = coreCycles_;
    CoreCycle minAct = kNeverCycle;
    // detlint-allow(raw-tick): counts tick() calls, not time
    std::uint64_t ticks = 0;
    std::uint64_t batchRuns = 0;
    std::uint64_t cyclesBatched = 0;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        if (coreDueCycle_[i] <= cycle) {
            Core &core = *cores_[i];
            // Guarded inline: a core that batched to (or past) this
            // cycle has nothing to account, which is the common case
            // here — unlike coreStep(), where catch-up is almost
            // always a no-op and stays an out-of-line call.
            if (core.syncedCycles() < cycle)
                core.catchUpTo(cycle);
            core.tick();
            ++ticks;
            // Greedy batch: run the core ahead through provably
            // core-private cycles (L1 hits, compute commits) so the
            // kernel never has to revisit it for them.
            const std::uint64_t batched = core.runBatch(batchLimit_);
            if (batched > 0) {
                ++batchRuns;
                cyclesBatched += batched;
            }
            coreDueCycle_[i] = core.nextActCycle();
        }
        if (coreDueCycle_[i] < minAct)
            minAct = coreDueCycle_[i];
    }
    kernelStats_.coreTicksRun += ticks;
    kernelStats_.coreBatchRuns += batchRuns;
    kernelStats_.coreCyclesBatched += cyclesBatched;
    coreCycles_ += CoreCycles{1};
    ++kernelStats_.coreStepsRun;
    coreActEventAt_ = minAct == kNeverCycle
                          ? kMaxTick
                          : cfg_.clocks.coreToTicks(minAct);
}

void
System::memStep(bool eager)
{
    while (toMem_.ready(now_)) {
        Request *req = toMem_.pop();
        const auto ch = req->coord.channel;
        controllers_[ch]->enqueue(req, now_);
        ctlDueAt_[ch] = now_; // Arrivals re-arm a sleeping controller.
    }
    ioStep();
    for (std::size_t i = 0; i < controllers_.size(); ++i) {
        if (eager || ctlDueAt_[i] <= now_) {
            ctlDueAt_[i] = controllers_[i]->tick(now_);
            ++kernelStats_.ctlTicksRun;
        }
    }
    ++kernelStats_.memStepsRun;
}

void
System::syncCores()
{
    for (auto &core : cores_)
        core->catchUpTo(coreCycles_);
}

Tick
System::coreEventAt() const
{
    const Tick latch = toCpu_.nextReadyAt();
    return latch < coreActEventAt_ ? latch : coreActEventAt_;
}

Tick
System::ioEventAt() const
{
    if (!io_.enabled || io_.outstanding >= io_.window)
        return kMaxTick;
    return io_.nextIssueAt;
}

Tick
System::memEventAt() const
{
    Tick ev = toMem_.nextReadyAt();
    const Tick io = ioEventAt();
    if (io < ev)
        ev = io;
    for (const Tick due : ctlDueAt_) {
        if (due < ev)
            ev = due;
    }
    return ev;
}

namespace {

/** Round @p t up to the next boundary of @p step's grid, saturating. */
Tick
alignUp(Tick t, TickSpan step)
{
    if (t > kMaxTick - step)
        return kMaxTick;
    const TickSpan phase = t % step;
    return phase == TickSpan{0} ? t : t + (step - phase);
}

/**
 * Round @p t up to the next boundary of @p step's grid, given that
 * @p grid already is a boundary at or before the result. Event
 * horizons usually sit within a few boundaries of the pending one, so
 * a short walk from @p grid dodges alignUp()'s 64-bit division.
 */
Tick
alignUpFrom(Tick grid, Tick t, TickSpan step)
{
    if (t <= grid)
        return grid;
    if (t - grid <= std::uint64_t{8} * step) {
        if (t > kMaxTick - step)
            return kMaxTick;
        while (grid < t)
            grid += step;
        return grid;
    }
    return alignUp(t, step);
}

} // namespace

void
System::referenceAdvance(Tick end)
{
    const ClockDomains &clk = cfg_.clocks;
    while (now_ < end) {
        if (now_ % clk.ticksPerCore == TickSpan{0})
            coreStep();
        if (now_ % clk.ticksPerDram == TickSpan{0})
            memStep(true);
        now_ += TickSpan{1};
    }
}

void
System::advance(std::uint64_t coreCycles)
{
    const Tick end = now_ + cfg_.clocks.coreToTicks(coreCycles);
    if (referenceKernel_) {
        referenceAdvance(end);
        syncCores();
        return;
    }
    advanceEvent(end);
}

void
System::advanceEvent(Tick end)
{
    // Pending step boundaries: the first tick of each domain's grid at
    // or after now_ that has not executed yet. The grid steps come from
    // the runtime clock domains, so the walk works for any core:DRAM
    // ratio (the baseline's 2:5 pattern repeating every LCM = 10 ticks
    // is just one instance).
    const TickSpan perCore = cfg_.clocks.ticksPerCore;
    const TickSpan perDram = cfg_.clocks.ticksPerDram;
    Tick nextCore = alignUp(now_, perCore);
    Tick nextMem = alignUp(now_, perDram);
    // Cached aligned horizons. A horizon only moves when its domain's
    // inputs move: the core horizon on a core step or a memory step
    // (which may latch a response toward the cores), the memory
    // horizon on a memory step or a crossbar push from the core side
    // (memHorizonDirty_, set by sendMem). Idle boundary elapses never
    // invalidate either (a cached horizon past the elapsed boundary
    // stays on its grid ahead of the new pending boundary), so most
    // iterations skip the recompute entirely.
    Tick tCore{};
    Tick tMem{};
    bool coreDirty = true;
    memHorizonDirty_ = true;
    // Cap batches at the window's final cycle count. The bound is
    // invariant across the window: every boundary in [nextCore, end)
    // adds exactly one core cycle whether it is stepped, skipped, or
    // idle, so compute it once instead of re-deriving (with a 64-bit
    // division) at every stepped boundary.
    batchLimit_ =
        end > nextCore
            ? coreCycles_ +
                  CoreCycles{(end - nextCore - TickSpan{1}) / perCore + 1}
            : coreCycles_;
    while (true) {
        // Earliest boundary of each domain that must actually execute.
        // Events are computed from post-step state, and nothing runs
        // between here and that boundary, so every boundary before it
        // is a provable no-op.
        if (coreDirty) {
            tCore = alignUpFrom(nextCore, coreEventAt(), perCore);
            coreDirty = false;
        }
        if (memHorizonDirty_) {
            tMem = alignUpFrom(nextMem, memEventAt(), perDram);
            memHorizonDirty_ = false;
        }
        const Tick t = std::min(std::min(tCore, tMem), end);

        // Skipped core boundaries still elapse simulated core cycles;
        // the cores account theirs lazily against coreCycles_. Short
        // gaps (the common case) walk instead of dividing.
        if (nextCore < t) {
            std::uint64_t skipped;
            if (t - nextCore <= std::uint64_t{8} * perCore) {
                skipped = 0;
                while (nextCore < t) {
                    nextCore += perCore;
                    ++skipped;
                }
            } else {
                skipped = (t - nextCore - TickSpan{1}) / perCore + 1;
                nextCore += skipped * perCore;
            }
            coreCycles_ += CoreCycles{skipped};
        }
        if (nextMem < t) {
            if (t - nextMem <= std::uint64_t{8} * perDram) {
                while (nextMem < t)
                    nextMem += perDram;
            } else {
                nextMem +=
                    ((t - nextMem - TickSpan{1}) / perDram + 1) * perDram;
            }
        }

        now_ = t;
        if (t == end)
            break;
        // A boundary shared with the other domain may itself be idle
        // (tCore/tMem past t); it still elapses but needs no step.
        if (t == nextCore) {
            if (tCore <= t) {
                coreStepEvent();
                coreDirty = true;
            } else {
                coreCycles_ += CoreCycles{1};
            }
            nextCore += perCore;
        }
        if (t == nextMem) {
            if (tMem <= t) {
                memStep(false);
                memHorizonDirty_ = true;
                coreDirty = true; // A completion may have latched toCpu_.
            }
            nextMem += perDram;
        }
    }
    syncCores();
}

void
System::resetStats()
{
    statsStartCycle_ = coreCycles_;
    for (auto &core : cores_)
        core->resetStats();
    hierarchy_->resetStats();
    backend_->resetStats(now_);
}

MetricSet
System::collect() const
{
    MetricSet m;
    m.measuredCycles = (coreCycles_ - statsStartCycle_).count();

    std::uint64_t committed = 0;
    for (const auto &core : cores_) {
        committed += core->stats().committedInstructions;
        m.perCoreIpc.push_back(core->stats().ipc());
        m.perCoreCommitted.push_back(core->stats().committedInstructions);
        m.perCoreCycles.push_back(core->stats().cycles);
    }
    if (!m.perCoreIpc.empty()) {
        const auto [lo, hi] = std::minmax_element(m.perCoreIpc.begin(),
                                                  m.perCoreIpc.end());
        m.ipcDisparity = *hi > 0.0 ? *lo / *hi : 1.0;
    }
    m.committedInstructions = committed;
    m.userIpc = m.measuredCycles
                    ? static_cast<double>(committed) /
                          static_cast<double>(m.measuredCycles)
                    : 0.0;
    m.l2Mpki = committed ? 1000.0 *
                               static_cast<double>(
                                   hierarchy_->stats().l2DemandMisses) /
                               static_cast<double>(committed)
                         : 0.0;

    std::uint64_t hits = 0, misses = 0, conflicts = 0;
    TickSpan latTicks;
    std::uint64_t latSamples = 0;
    std::uint64_t singles = 0, activations = 0;
    std::uint64_t casTotal = 0, casSameGroup = 0;
    LogHistogram latencyHist{24};
    for (const auto &mc : controllers_) {
        latencyHist.merge(mc->stats().readLatencyHist);
    }
    m.readLatencyP50 = latencyHist.percentile(0.50);
    m.readLatencyP95 = latencyHist.percentile(0.95);
    m.readLatencyP99 = latencyHist.percentile(0.99);
    for (const auto &mc : controllers_) {
        const auto &s = mc->stats();
        hits += s.rowHits;
        misses += s.rowMisses;
        conflicts += s.rowConflicts;
        latTicks += s.readLatencyTicks;
        latSamples += s.readLatencySamples;
        singles += s.activationAccesses.bucket(1);
        activations += s.activationAccesses.count();
        m.avgReadQueue += s.readQueueLen.mean(now_);
        m.avgWriteQueue += s.writeQueueLen.mean(now_);
        m.memReads += s.servedReads + s.forwardedReads;
        m.memWrites += s.servedWrites;
        const auto &ch = mc->channel().stats();
        casTotal += ch.reads + ch.writes;
        casSameGroup += ch.casSameGroup;
    }
    m.sameGroupCasPct =
        casTotal ? 100.0 * static_cast<double>(casSameGroup) /
                       static_cast<double>(casTotal)
                 : 0.0;
    const std::uint64_t cas = hits + misses + conflicts;
    m.rowHitRatePct =
        cas ? 100.0 * static_cast<double>(hits) / static_cast<double>(cas)
            : 0.0;
    m.avgReadLatency =
        latSamples ? static_cast<double>(latTicks.count()) /
                         static_cast<double>(latSamples) /
                         static_cast<double>(cfg_.clocks.ticksPerCore.count())
                   : 0.0;
    m.singleAccessPct = activations
                            ? 100.0 * static_cast<double>(singles) /
                                  static_cast<double>(activations)
                            : 0.0;
    // Media-side quantities — bus utilization, the energy model, and
    // (stacked backend) per-vault occupancy and remap counters — are
    // the backend's to report.
    backend_->collect(m, now_);
    return m;
}

MetricSet
System::run()
{
    advance(cfg_.warmupCoreCycles);
    resetStats();
    advance(cfg_.measureCoreCycles);
    return collect();
}

} // namespace mcsim
