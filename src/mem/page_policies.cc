#include "page_policies.hh"

#include <algorithm>

namespace mcsim {

PredictivePolicyBase::PredictivePolicyBase(std::uint32_t entriesPerBank,
                                           bool recordZeroHitRows)
    : recordZeroHitRows_(recordZeroHitRows)
{
    for (auto &t : tables_)
        t.resize(entriesPerBank);
}

int
PredictivePolicyBase::predictedHits(std::uint32_t bank,
                                    std::uint64_t row) const
{
    for (const auto &e : tables_[bank]) {
        if (e.valid && e.row == row)
            return static_cast<int>(e.hits);
    }
    return -1;
}

void
PredictivePolicyBase::onPrecharge(std::uint32_t bank, std::uint64_t row,
                                  std::uint32_t accesses)
{
    auto &t = tables_[bank];
    // Hits = column accesses beyond the first during the activation.
    const std::uint32_t hits = accesses > 0 ? accesses - 1 : 0;
    if (hits == 0 && !recordZeroHitRows_) {
        // RBPP only tracks rows that earned at least one hit; also
        // retire a stale entry predicting hits for this row.
        for (auto &e : t) {
            if (e.valid && e.row == row)
                e.valid = false;
        }
        return;
    }
    ++lruClock_;
    Entry *victim = &t[0];
    for (auto &e : t) {
        if (e.valid && e.row == row) {
            e.hits = hits;
            e.lruStamp = lruClock_;
            return;
        }
        if (!e.valid) {
            victim = &e;
        } else if (victim->valid && e.lruStamp < victim->lruStamp) {
            victim = &e;
        }
    }
    *victim = Entry{row, hits, lruClock_, true};
}

bool
PredictivePolicyBase::shouldClose(const PageQuery &q)
{
    if (q.pendingHit)
        return false;
    const int predicted = predictedHits(q.bank, q.openRow);
    if (predicted < 0) {
        // Untracked row: behave like open-adaptive (stay open unless a
        // conflicting request is already waiting).
        return q.pendingConflict;
    }
    // Close once the row used up its predicted accesses (first access
    // plus `predicted` hits).
    return q.accessesThisActivation >=
           static_cast<std::uint32_t>(predicted) + 1;
}

HistoryPolicy::HistoryPolicy(std::uint32_t historyBits)
{
    mc_assert(historyBits <= 16, "History keeps a 2^bits counter table");
    historyMask_ = (1u << historyBits) - 1;
    // Weakly predict "single access": Figure 8 shows 77%-90% of
    // activations get one access, so that is the better prior.
    for (auto &p : banks_)
        p.counters.assign(std::size_t{1} << historyBits, 2);
}

bool
HistoryPolicy::predictsSingleAccess(std::uint32_t bank) const
{
    const BankPredictor &p = banks_[bank];
    return p.counters[p.history & historyMask_] >= 2;
}

bool
HistoryPolicy::shouldClose(const PageQuery &q)
{
    if (q.pendingHit)
        return false;
    if (q.accessesThisActivation >= 1 && predictsSingleAccess(q.bank))
        return true;
    // Predicted reuse: behave like open-adaptive.
    return q.pendingConflict;
}

void
HistoryPolicy::onPrecharge(std::uint32_t bank, std::uint64_t,
                           std::uint32_t accesses)
{
    BankPredictor &p = banks_[bank];
    const bool single = accesses <= 1;
    std::uint8_t &ctr = p.counters[p.history & historyMask_];
    if (single) {
        ctr = static_cast<std::uint8_t>(std::min<int>(ctr + 1, 3));
    } else {
        ctr = static_cast<std::uint8_t>(std::max<int>(ctr - 1, 0));
    }
    p.history = ((p.history << 1) | (single ? 1u : 0u)) & historyMask_;
}

} // namespace mcsim
