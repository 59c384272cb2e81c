/**
 * @file
 * PB-RFM: per-bank activation-counting RFM, after DDR5's Refresh
 * Management (RAA counters + RAAIMT).
 *
 * The controller keeps one Rolling Accumulated ACT (RAA) counter per
 * bank; when a bank's counter reaches the RAA Initial Management
 * Threshold it owes the DRAM one RFMpb and the counter is debited by
 * RAAIMT.  Compared with the channel-wide ACB-RFM baseline this
 * blocks a single bank per event instead of draining the channel --
 * but the trigger is still a deterministic function of per-bank
 * activity, so its RFM timing leaks activation counts to any
 * co-located observer (the defense bake-off measures exactly this).
 */

#ifndef PRACLEAK_MITIGATION_PB_RFM_H
#define PRACLEAK_MITIGATION_PB_RFM_H

#include <cstdint>
#include <deque>
#include <vector>

#include "mitigation/configs.h"
#include "mitigation/mitigation.h"

namespace pracleak {

/** DDR5-RAAIMT-style per-bank RFM scheduling. */
class PbRfmMitigation : public Mitigation
{
  public:
    PbRfmMitigation(const PbRfmConfig &config, std::uint32_t num_banks,
                    StatSet *stats);

    const char *name() const override { return "pb-rfm"; }

    void onActivate(std::uint32_t flat_bank, std::uint32_t row,
                    Cycle now) override;

    MaintenanceRequest maintenanceCommands(Cycle now) override;

    void onRfmIssued(RfmReason reason, bool per_bank, Cycle now) override;

    Cycle
    nextMaintenanceAt(Cycle now) const override
    {
        return pending_.empty() ? kNeverCycle : now;
    }

    std::uint64_t eventsTriggered() const override { return triggers_; }

    /** Banks queued for an RFMpb but not yet serviced. */
    std::size_t pendingMitigations() const override
    {
        return pending_.size();
    }

    /** Current RAA count of @p flat_bank (testing/telemetry). */
    std::uint32_t raaCount(std::uint32_t flat_bank) const
    {
        return raa_[flat_bank];
    }

  private:
    PbRfmConfig config_;
    CounterHandle triggersStat_;
    std::vector<std::uint32_t> raa_;
    std::deque<std::uint32_t> pending_;  //!< banks owed an RFMpb
    std::uint64_t triggers_ = 0;
};

} // namespace pracleak

#endif // PRACLEAK_MITIGATION_PB_RFM_H
