/**
 * @file
 * The four built-in PRAC defenses the paper compares (Figs. 9-10,
 * Section 7.1), plus the undefended baseline, on the Mitigation
 * interface.  Their behaviour is pinned by the golden tests in
 * tests/test_golden.cpp:
 *
 *  - NullMitigation ("none" / "abo-only"): no proactive maintenance;
 *    the two keys differ only in whether the ABO substrate is armed.
 *  - AcbRfmMitigation ("abo+acb-rfm"): host-side per-bank ACT counting
 *    with proactive RFMabs at the Bank Activation Threshold.
 *  - TpracMitigation ("tprac"): timing-based RFMs on a fixed TB-Window
 *    (all-bank, or rotating RFMpb in the TPRAC-PB variant), with the
 *    optional TREF co-design skip.
 *  - ObfuscationMitigation ("obfuscation"): random RFMab injection,
 *    one Bernoulli draw per tREFI (Section 7.1 ablation).
 */

#ifndef PRACLEAK_MITIGATION_PRAC_DEFENSES_H
#define PRACLEAK_MITIGATION_PRAC_DEFENSES_H

#include <cstdint>

#include "common/rng.h"
#include "mitigation/mitigation.h"
#include "prac/acb_tracker.h"
#include "tprac/tb_rfm.h"

namespace pracleak {

/** No proactive maintenance ("none" and "abo-only"). */
class NullMitigation : public Mitigation
{
  public:
    explicit NullMitigation(const char *name) : name_(name) {}

    const char *name() const override { return name_; }

  private:
    const char *name_;
};

/** Host-side ACB-RFM: proactive RFMab at the BAT ("abo+acb-rfm"). */
class AcbRfmMitigation : public Mitigation
{
  public:
    AcbRfmMitigation(std::uint32_t num_banks, std::uint32_t bat)
        : tracker_(num_banks, bat)
    {
    }

    const char *name() const override { return "abo+acb-rfm"; }

    void
    onActivate(std::uint32_t flat_bank, std::uint32_t, Cycle) override
    {
        tracker_.onActivate(flat_bank);
    }

    MaintenanceRequest
    maintenanceCommands(Cycle) override
    {
        MaintenanceRequest req;
        if (tracker_.rfmNeeded()) {
            req.wanted = true;
            req.reason = RfmReason::Acb;
        }
        return req;
    }

    void
    onRfmIssued(RfmReason, bool per_bank, Cycle) override
    {
        // Any RFMab resets every bank count (ABO-service ones too).
        if (!per_bank)
            tracker_.onRfmIssued();
    }

    Cycle
    nextMaintenanceAt(Cycle now) const override
    {
        return tracker_.rfmNeeded() ? now : kNeverCycle;
    }

    std::uint64_t
    eventsTriggered() const override
    {
        return tracker_.rfmsRequested();
    }

    const AcbTracker &tracker() const { return tracker_; }

  private:
    AcbTracker tracker_;
};

/** Timing-based RFMs on a fixed TB-Window ("tprac" / TPRAC-PB). */
class TpracMitigation : public Mitigation
{
  public:
    /**
     * @param config    TB-Window configuration; for the per-bank
     *                  variant the window must already be divided by
     *                  the bank count (registry responsibility).
     * @param engine    PRAC engine (TREF co-design skip credit).
     * @param num_banks Channel-wide bank count (RFMpb rotation).
     */
    TpracMitigation(const TbRfmConfig &config, PracEngine *engine,
                    std::uint32_t num_banks)
        : config_(config), scheduler_(config, engine),
          numBanks_(num_banks)
    {
    }

    const char *name() const override { return "tprac"; }

    MaintenanceRequest
    maintenanceCommands(Cycle now) override
    {
        MaintenanceRequest req;
        if (!scheduler_.due(now))
            return req;
        if (scheduler_.trySkipWithTref(now))
            return req;
        req.wanted = true;
        req.reason = RfmReason::TimingBased;
        req.perBank = config_.perBank;
        if (req.perBank)
            req.flatBank = rotation_++ % numBanks_;
        return req;
    }

    void
    onRfmIssued(RfmReason reason, bool, Cycle now) override
    {
        if (reason == RfmReason::TimingBased)
            scheduler_.onRfmIssued(now);
    }

    Cycle
    nextMaintenanceAt(Cycle) const override
    {
        return scheduler_.enabled() ? scheduler_.nextDeadline()
                                    : kNeverCycle;
    }

    std::uint64_t
    eventsTriggered() const override
    {
        return scheduler_.issued();
    }

    const TbRfmScheduler *tbScheduler() const override
    {
        return &scheduler_;
    }

  private:
    TbRfmConfig config_;
    TbRfmScheduler scheduler_;
    std::uint32_t numBanks_;
    std::uint32_t rotation_ = 0;
};

/** Random-RFM injection, one draw per tREFI ("obfuscation"). */
class ObfuscationMitigation : public Mitigation
{
  public:
    ObfuscationMitigation(double probability, std::uint64_t seed,
                          Cycle trefi)
        : probability_(probability), trefi_(trefi), rng_(seed),
          nextDrawAt_(trefi)
    {
    }

    const char *name() const override { return "obfuscation"; }

    MaintenanceRequest
    maintenanceCommands(Cycle now) override
    {
        MaintenanceRequest req;
        if (now < nextDrawAt_)
            return req;
        nextDrawAt_ += trefi_;
        if (rng_.chance(probability_)) {
            req.wanted = true;
            req.reason = RfmReason::Random;
            ++injected_;
        }
        return req;
    }

    Cycle
    nextMaintenanceAt(Cycle) const override
    {
        return nextDrawAt_;
    }

    std::uint64_t eventsTriggered() const override { return injected_; }

  private:
    double probability_;
    Cycle trefi_;
    Rng rng_;
    Cycle nextDrawAt_;
    std::uint64_t injected_ = 0;
};

} // namespace pracleak

#endif // PRACLEAK_MITIGATION_PRAC_DEFENSES_H
