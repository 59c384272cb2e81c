#include "prac/prac_engine.h"

#include <algorithm>

namespace pracleak {

PracEngine::PracEngine(const DramSpec &spec,
                       const PracEngineConfig &config, StatSet *stats)
    : spec_(spec), config_(config),
      counterResetsStat_(stats, "prac.counter_resets"),
      alertsStat_(stats, "prac.alerts"),
      mitigatedRowsStat_(stats, "prac.mitigated_rows"),
      trefMitigationsStat_(stats, "prac.tref_mitigations"),
      counters_(spec.org.totalBanks()),
      refsPerRank_(spec.org.ranks, 0),
      trefRoundsPerRank_(spec.org.ranks, 0),
      trefMarkPerRank_(spec.org.ranks, 0),
      lastTrefAtPerRank_(spec.org.ranks, kNeverCycle),
      nextCounterResetAt_(spec.timing.tREFW)
{
    const std::uint32_t fifo_thr =
        config.fifoThreshold ? config.fifoThreshold : spec.prac.nbo / 2;
    policy_ = makeMitigationPolicy(config.queue, spec.org.totalBanks(),
                                   counters_, fifo_thr);
}

void
PracEngine::maybePeriodicReset(Cycle now)
{
    if (!config_.counterResetAtTrefw)
        return;
    while (now >= nextCounterResetAt_) {
        counters_.resetAll();
        nextCounterResetAt_ += spec_.timing.tREFW;
        ++counterResetsStat_;
    }
}

void
PracEngine::raiseAlertIfNeeded(std::uint32_t bank, std::uint32_t row,
                               std::uint32_t count, Cycle now)
{
    if (!config_.aboEnabled || alertAsserted_ || aboDelayRemaining_ > 0)
        return;
    if (count >= spec_.prac.nbo) {
        alertAsserted_ = true;
        alertAssertedAt_ = now;
        actsSinceAlert_ = 0;
        rfmsServedThisAlert_ = 0;
        lastAlertBank_ = bank;
        lastAlertRow_ = row;
        ++alerts_;
        ++alertsStat_;
    }
}

void
PracEngine::onActivate(std::uint32_t flat_bank, std::uint32_t row,
                       Cycle now)
{
    maybePeriodicReset(now);

    const std::uint32_t count = counters_.increment(flat_bank, row);
    policy_->onActivate(flat_bank, row, count);

    if (aboDelayRemaining_ > 0)
        --aboDelayRemaining_;
    if (alertAsserted_)
        ++actsSinceAlert_;

    raiseAlertIfNeeded(flat_bank, row, count, now);
}

void
PracEngine::mitigateBank(std::uint32_t bank)
{
    const auto victim = policy_->selectVictim(bank);
    if (!victim)
        return;
    counters_.reset(bank, *victim);
    policy_->onMitigated(bank, *victim);
    ++mitigatedRows_;
    ++mitigatedRowsStat_;
}

void
PracEngine::mitigateRow(std::uint32_t flat_bank, std::uint32_t row)
{
    counters_.reset(flat_bank, row);
    policy_->onMitigated(flat_bank, row);
    ++mitigatedRows_;
    ++mitigatedRowsStat_;
}

void
PracEngine::onRfm(Cycle now)
{
    maybePeriodicReset(now);

    for (std::uint32_t bank = 0; bank < spec_.org.totalBanks(); ++bank)
        mitigateBank(bank);

    if (alertAsserted_) {
        ++rfmsServedThisAlert_;
        if (rfmsServedThisAlert_ >= spec_.prac.nmit) {
            alertAsserted_ = false;
            rfmsServedThisAlert_ = 0;
            aboDelayRemaining_ = spec_.prac.aboDelay();
        }
    }
}

void
PracEngine::onRfmPb(std::uint32_t flat_bank, Cycle now)
{
    maybePeriodicReset(now);
    mitigateBank(flat_bank);
    // Per-bank RFMs service an Alert only once every bank had one; we
    // conservatively do not count them toward Alert service (TPRAC-PB
    // never lets the Alert assert in the first place).
}

void
PracEngine::onRefresh(std::uint32_t rank, Cycle now)
{
    maybePeriodicReset(now);

    if (config_.trefPeriodRefs == 0)
        return;

    const std::uint64_t n = ++refsPerRank_[rank];
    if (n % config_.trefPeriodRefs != 0)
        return;

    const std::uint32_t begin = rank * spec_.org.banksPerRank();
    for (std::uint32_t b = 0; b < spec_.org.banksPerRank(); ++b)
        mitigateBank(begin + b);

    ++trefRoundsPerRank_[rank];
    lastTrefAtPerRank_[rank] = now;
    ++trefMitigations_;
    ++trefMitigationsStat_;
}

std::uint64_t
PracEngine::minTrefRoundsSinceMark() const
{
    std::uint64_t least = ~std::uint64_t{0};
    for (std::size_t r = 0; r < trefRoundsPerRank_.size(); ++r)
        least = std::min(least,
                         trefRoundsPerRank_[r] - trefMarkPerRank_[r]);
    return least;
}

void
PracEngine::markTrefBaseline()
{
    trefMarkPerRank_ = trefRoundsPerRank_;
}

Cycle
PracEngine::oldestRecentTref() const
{
    Cycle oldest = 0;
    for (const Cycle at : lastTrefAtPerRank_) {
        if (at == kNeverCycle)
            return kNeverCycle;
        oldest = oldest == 0 ? at : std::min(oldest, at);
    }
    return oldest;
}

} // namespace pracleak
