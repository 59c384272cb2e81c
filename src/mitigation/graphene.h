/**
 * @file
 * Graphene: Misra-Gries frequent-item tracking per bank (Park et al.,
 * MICRO'20), adapted to a PRAC-era controller.
 *
 * The controller keeps a bounded table of (row, estimated count)
 * entries per bank, maintained with the Space-Saving update rule: a
 * tracked row increments its estimate, an untracked row evicts the
 * minimum entry and inherits its estimate plus one.  When any
 * estimate reaches the threshold, the controller issues an RFMpb to
 * that bank -- the DRAM's victim-selection policy then refreshes the
 * bank's hottest row, which for a Graphene-triggered bank is the
 * tracked aggressor.  Because the trigger is a deterministic function
 * of the activation stream, the RFMpb timing leaks the victim's
 * per-bank activation counts exactly like ACB-RFM does channel-wide;
 * the bake-off scenarios measure this.
 *
 * Tables reset every tREFW.  Estimates overestimate a row's true
 * window count by at most W/tableSize (W = window activations), so a
 * table sized W/threshold -- which configureDefense derives from the
 * Feinting analysis -- guarantees no row reaches 2*threshold
 * unmitigated while keeping decoy-scanning false triggers rare; this
 * per-bank SRAM is exactly the cost the Graphene paper pays.
 */

#ifndef PRACLEAK_MITIGATION_GRAPHENE_H
#define PRACLEAK_MITIGATION_GRAPHENE_H

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "mitigation/configs.h"
#include "mitigation/mitigation.h"

namespace pracleak {

/** Space-Saving counter table driving targeted per-bank RFMs. */
class GrapheneMitigation : public Mitigation
{
  public:
    GrapheneMitigation(const GrapheneConfig &config,
                       std::uint32_t num_banks, Cycle trefw,
                       StatSet *stats);

    const char *name() const override { return "graphene"; }

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

    /** Tracked entries in @p flat_bank (testing/telemetry). */
    std::size_t trackedRows(std::uint32_t flat_bank) const
    {
        return tables_[flat_bank].rows.size();
    }

  private:
    /**
     * One bank's Space-Saving state.  byCount mirrors rows as a
     * count-indexed view so the eviction victim (lowest row id among
     * the minimum estimates) resolves in O(log n) instead of a
     * full-table scan on every untracked-row activation.
     */
    struct Table
    {
        std::map<std::uint32_t, std::uint32_t> rows; //!< row -> estimate
        std::map<std::uint32_t, std::set<std::uint32_t>>
            byCount;                                 //!< estimate -> rows

        void setCount(std::uint32_t row, std::uint32_t from,
                      std::uint32_t to, bool inserting);
        void clear();
    };

    /** Threshold check on a just-updated estimate; 0 on trigger. */
    std::uint32_t checkThreshold(std::uint32_t flat_bank,
                                 std::uint32_t count);

    GrapheneConfig config_;
    CounterHandle triggersStat_;
    Cycle trefw_;
    Cycle nextResetAt_;
    std::vector<Table> tables_;
    std::deque<std::uint32_t> pending_;  //!< banks owed an RFMpb
    std::uint64_t triggers_ = 0;
};

} // namespace pracleak

#endif // PRACLEAK_MITIGATION_GRAPHENE_H
