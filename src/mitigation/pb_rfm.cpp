#include "mitigation/pb_rfm.h"

#include "common/log.h"

namespace pracleak {

PbRfmMitigation::PbRfmMitigation(const PbRfmConfig &config,
                                 std::uint32_t num_banks,
                                 StatSet *stats)
    : config_(config), triggersStat_(stats, "mit.pb_rfm.triggers"),
      raa_(num_banks, 0)
{
    if (config_.raaimt == 0)
        fatal("PB-RFM requires a non-zero RAAIMT");
}

void
PbRfmMitigation::onActivate(std::uint32_t flat_bank, std::uint32_t,
                            Cycle)
{
    if (++raa_[flat_bank] < config_.raaimt)
        return;
    raa_[flat_bank] -= config_.raaimt;
    pending_.push_back(flat_bank);
    ++triggers_;
    ++triggersStat_;
}

MaintenanceRequest
PbRfmMitigation::maintenanceCommands(Cycle)
{
    MaintenanceRequest req;
    if (pending_.empty())
        return req;
    req.wanted = true;
    req.perBank = true;
    req.reason = RfmReason::PerBank;
    req.flatBank = pending_.front();
    return req;
}

void
PbRfmMitigation::onRfmIssued(RfmReason reason, bool, Cycle)
{
    if (reason == RfmReason::PerBank && !pending_.empty())
        pending_.pop_front();
}

} // namespace pracleak
