#include "mitigation/para.h"

#include "prac/prac_engine.h"

namespace pracleak {

ParaMitigation::ParaMitigation(const ParaConfig &config,
                               std::uint32_t channel, PracEngine *prac,
                               StatSet *stats)
    : config_(config), prac_(prac),
      refreshesStat_(stats, "mit.para.refreshes"),
      rng_(deriveRngStream(config.seed, channel))
{
}

void
ParaMitigation::onActivate(std::uint32_t flat_bank, std::uint32_t row,
                           Cycle)
{
    if (!rng_.chance(config_.refreshProb))
        return;
    prac_->mitigateRow(flat_bank, row);
    ++refreshes_;
    ++refreshesStat_;
}

} // namespace pracleak
