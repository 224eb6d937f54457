#include "sched_rl.hh"

#include <algorithm>

namespace mcsim {

namespace {

/** Quantize a queue length to 3 bits (0..7). */
std::uint64_t
quantizeLen(std::size_t len)
{
    if (len >= 32)
        return 7;
    if (len >= 16)
        return 6;
    if (len >= 8)
        return 5;
    return len >= 4 ? 4 : len;
}

/** splitmix64: cheap, well-mixed integer hash. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

RlScheduler::RlScheduler(RlConfig cfg, const ClockDomains &clk)
    : cfg_(cfg), clk_(clk), rng_(cfg.seed, 0x524cULL),
      tables_(static_cast<std::size_t>(cfg.numTables) * cfg.tableSize,
              0.0f)
{
}

std::uint64_t
RlScheduler::featurize(const Candidate &c,
                       const SchedulerContext &ctx) const
{
    // Pack quantized state and action attributes into one word; the
    // tile hashes slice it per table.
    std::uint64_t f = 0;
    f |= quantizeLen(ctx.readQueueLen);             // 3 bits
    f |= quantizeLen(ctx.writeQueueLen) << 3;       // 3 bits
    f |= quantizeLen(ctx.pendingHits) << 6;         // 3 bits
    f |= static_cast<std::uint64_t>(ctx.drainingWrites) << 9;
    f |= static_cast<std::uint64_t>(c.cmd) << 10;   // 3 bits
    f |= static_cast<std::uint64_t>(c.isRowHit) << 13;
    f |= static_cast<std::uint64_t>(c.req->isWrite) << 14;
    f |= static_cast<std::uint64_t>(c.req->isIo) << 15;
    return f;
}

std::uint32_t
RlScheduler::tableHash(std::uint64_t features, std::uint32_t table) const
{
    return static_cast<std::uint32_t>(
        mix64(features ^ (0xabcd0123ULL * (table + 1))) % cfg_.tableSize);
}

double
RlScheduler::qValue(std::uint64_t features) const
{
    double q = 0.0;
    for (std::uint32_t t = 0; t < cfg_.numTables; ++t)
        q += tables_[static_cast<std::size_t>(t) * cfg_.tableSize +
                     tableHash(features, t)];
    return q;
}

void
RlScheduler::update(double reward, double nextQ)
{
    // SARSA: Q(s,a) += alpha * (r + gamma * Q(s',a') - Q(s,a)),
    // spread evenly across the CMAC tables.
    const double delta =
        cfg_.alpha * (reward + cfg_.gamma * nextQ - prevQ_);
    const auto perTable = static_cast<float>(delta / cfg_.numTables);
    for (std::uint32_t t = 0; t < cfg_.numTables; ++t) {
        tables_[static_cast<std::size_t>(t) * cfg_.tableSize +
                tableHash(prevFeatures_, t)] += perTable;
    }
    ++updates_;
}

int
RlScheduler::choose(const std::vector<Candidate> &cands, Tick now,
                    const SchedulerContext &ctx)
{
    if (cands.empty()) {
        // No action this cycle; defer the SARSA update until a real
        // action is available (idle cycles carry zero reward).
        return -1;
    }

    // Starvation guard: requests waiting longer than the threshold are
    // serviced oldest-first, bypassing the learned policy.
    const TickSpan starveTicks = clk_.coreToTicks(cfg_.starvationCycles);
    int starvedIdx = -1;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        if (now - cands[i].req->arrivedAt >= starveTicks) {
            if (starvedIdx < 0 || cands[i].req->arrivedAt <
                                      cands[starvedIdx].req->arrivedAt) {
                starvedIdx = static_cast<int>(i);
            }
        }
    }

    int chosen;
    if (starvedIdx >= 0) {
        chosen = starvedIdx;
    } else if (rng_.chance(cfg_.epsilon)) {
        // Explore uniformly among the legal commands, plus no-action
        // when configured (the original action vocabulary includes it;
        // an exploratory no-op burns the issue slot).
        const auto extra = cfg_.exploreNoAction ? 1u : 0u;
        const auto pick = rng_.below(
            static_cast<std::uint32_t>(cands.size()) + extra);
        ++explorations_;
        if (pick == cands.size()) {
            // No-action: defer the SARSA update to the next real
            // decision (idle cycles carry zero reward either way).
            return -1;
        }
        chosen = static_cast<int>(pick);
    } else {
        chosen = 0;
        double bestQ = qValue(featurize(cands[0], ctx));
        for (std::size_t k = 1; k < cands.size(); ++k) {
            const double q = qValue(featurize(cands[k], ctx));
            if (q > bestQ) {
                bestQ = q;
                chosen = static_cast<int>(k);
            }
        }
    }

    const std::uint64_t feats = featurize(cands[chosen], ctx);
    const double q = qValue(feats);
    if (havePrev_)
        update(prevReward_, q);

    prevFeatures_ = feats;
    prevQ_ = q;
    const auto cmd = cands[chosen].cmd;
    prevReward_ = (cmd == DramCommandType::Read ||
                   cmd == DramCommandType::Write)
                      ? 1.0
                      : 0.0;
    havePrev_ = true;
    return chosen;
}

} // namespace mcsim
