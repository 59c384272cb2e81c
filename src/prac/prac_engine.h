/**
 * @file
 * DRAM-side PRAC logic: per-row counters, the Alert Back-Off protocol,
 * mitigation on RFM, Targeted Refresh (TREF) piggybacking, and the
 * tREFW counter-reset policy.
 *
 * The engine attaches to a DramDevice as a listener.  The memory
 * controller polls alertAsserted() and is responsible for issuing the
 * RFMab commands that service an Alert (see MemoryController); the
 * engine performs the in-DRAM side effects when those RFMs arrive.
 */

#ifndef PRACLEAK_PRAC_PRAC_ENGINE_H
#define PRACLEAK_PRAC_PRAC_ENGINE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/dram.h"
#include "prac/mitigation_queue.h"
#include "prac/row_counters.h"

namespace pracleak {

/** Behavioural configuration of the PRAC implementation. */
struct PracEngineConfig
{
    /** Mitigation-queue design (TPRAC uses SingleEntry). */
    QueueKind queue = QueueKind::SingleEntry;

    /** Whether the DRAM ever asserts Alert (ABO protocol on/off). */
    bool aboEnabled = true;

    /**
     * Mitigate from the queue during every k-th REFab per rank
     * (Targeted Refresh).  0 disables TREF.
     */
    std::uint32_t trefPeriodRefs = 0;

    /** Reset all activation counters every tREFW (32 ms). */
    bool counterResetAtTrefw = true;

    /** FIFO enqueue threshold (only used with QueueKind::Fifo). */
    std::uint32_t fifoThreshold = 0;
};

/** PRAC state machine; one instance per channel. */
class PracEngine : public DramListener
{
  public:
    PracEngine(const DramSpec &spec, const PracEngineConfig &config,
               StatSet *stats = nullptr);

    // DramListener interface -------------------------------------------
    void onActivate(std::uint32_t flat_bank, std::uint32_t row,
                    Cycle now) override;
    void onRefresh(std::uint32_t rank, Cycle now) override;
    void onRfm(Cycle now) override;
    void onRfmPb(std::uint32_t flat_bank, Cycle now) override;

    // Controller-facing interface --------------------------------------

    /** Whether the Alert pin is currently asserted. */
    bool alertAsserted() const { return alertAsserted_; }

    /** Cycle at which the current Alert was asserted. */
    Cycle alertAssertedAt() const { return alertAssertedAt_; }

    /** ACTs issued since the current Alert asserted (ABOACT budget). */
    std::uint32_t actsSinceAlert() const { return actsSinceAlert_; }

    /** Apply the tREFW counter-reset policy if the window elapsed. */
    void maybePeriodicReset(Cycle now);

    /**
     * Externally triggered mitigation of one specific row (e.g. a
     * PARA neighbour refresh performed inside the row cycle): resets
     * the row's counter and books the mitigation for stats/energy,
     * without any bus command.
     */
    void mitigateRow(std::uint32_t flat_bank, std::uint32_t row);

    /** Next scheduled tREFW reset (kNeverCycle when disabled). */
    Cycle
    nextCounterResetAt() const
    {
        return config_.counterResetAtTrefw ? nextCounterResetAt_
                                           : kNeverCycle;
    }

    // Telemetry ---------------------------------------------------------

    const RowCounters &counters() const { return counters_; }
    const MitigationPolicy &policy() const { return *policy_; }
    std::uint64_t alerts() const { return alerts_; }

    /** Bank/row whose activation asserted the most recent Alert. */
    std::uint32_t lastAlertBank() const { return lastAlertBank_; }
    std::uint32_t lastAlertRow() const { return lastAlertRow_; }
    std::uint64_t mitigatedRows() const { return mitigatedRows_; }
    std::uint64_t trefMitigations() const { return trefMitigations_; }

    /**
     * Minimum per-rank TREF-round count since the last markTrefBaseline
     * call.  One full round means every bank received one queue
     * mitigation (telemetry; the scheduler uses the time-based query
     * below).
     */
    std::uint64_t minTrefRoundsSinceMark() const;

    /** Reset the TREF baseline (called when a TB-RFM is skipped/issued). */
    void markTrefBaseline();

    /**
     * Cycle of the *oldest* per-rank most-recent TREF mitigation, or
     * kNeverCycle when some rank has never had one.  A scheduled
     * TB-RFM may be skipped when this falls inside the current
     * TB-Window: every bank then already received a queue mitigation
     * in the interval (Section 4.3).
     */
    Cycle oldestRecentTref() const;

  private:
    void mitigateBank(std::uint32_t bank);
    void raiseAlertIfNeeded(std::uint32_t bank, std::uint32_t row,
                            std::uint32_t count, Cycle now);

    DramSpec spec_;
    PracEngineConfig config_;
    CounterHandle counterResetsStat_;
    CounterHandle alertsStat_;
    CounterHandle mitigatedRowsStat_;
    CounterHandle trefMitigationsStat_;

    RowCounters counters_;
    std::unique_ptr<MitigationPolicy> policy_;

    bool alertAsserted_ = false;
    Cycle alertAssertedAt_ = 0;
    std::uint32_t actsSinceAlert_ = 0;
    std::uint32_t rfmsServedThisAlert_ = 0;
    std::uint32_t aboDelayRemaining_ = 0;

    std::vector<std::uint64_t> refsPerRank_;
    std::vector<std::uint64_t> trefRoundsPerRank_;
    std::vector<std::uint64_t> trefMarkPerRank_;
    std::vector<Cycle> lastTrefAtPerRank_;

    Cycle nextCounterResetAt_;

    std::uint64_t alerts_ = 0;
    std::uint64_t mitigatedRows_ = 0;
    std::uint64_t trefMitigations_ = 0;
    std::uint32_t lastAlertBank_ = 0;
    std::uint32_t lastAlertRow_ = 0;
};

} // namespace pracleak

#endif // PRACLEAK_PRAC_PRAC_ENGINE_H
