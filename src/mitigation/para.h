/**
 * @file
 * PARA: Probabilistic Adjacent-Row Activation (Kim et al., ISCA'14),
 * modelled as an in-DRAM defense.
 *
 * On every activation the DRAM refreshes the activated row's
 * neighbours with probability p.  We model the neighbour refresh as a
 * reset of the activated row's PRAC counter (the counter is the
 * simulator's proxy for accumulated neighbour damage) performed
 * inside the row cycle the DRAM already owns -- no bus command, no
 * extra blocking time.  That is the defining contrast with every
 * RFM-based defense in the bake-off: PARA's mitigations are invisible
 * to a latency probe, so it cannot leak RFM-timing, while its
 * security guarantee is only probabilistic ((1-p)^NBO escape chance
 * per row between resets).
 *
 * Each (channel, defense) pair draws from its own counter-derived RNG
 * stream (common/rng.h) so multi-channel runs and `--jobs N` sweeps
 * stay bit-reproducible.
 */

#ifndef PRACLEAK_MITIGATION_PARA_H
#define PRACLEAK_MITIGATION_PARA_H

#include <cstdint>

#include "common/rng.h"
#include "mitigation/configs.h"
#include "mitigation/mitigation.h"

namespace pracleak {

/** In-DRAM probabilistic neighbour refresh. */
class ParaMitigation : public Mitigation
{
  public:
    ParaMitigation(const ParaConfig &config, std::uint32_t channel,
                   PracEngine *prac, StatSet *stats);

    const char *name() const override { return "para"; }

    void onActivate(std::uint32_t flat_bank, std::uint32_t row,
                    Cycle now) override;

    std::uint64_t eventsTriggered() const override { return refreshes_; }

  private:
    ParaConfig config_;
    PracEngine *prac_;
    CounterHandle refreshesStat_;
    Rng rng_;
    std::uint64_t refreshes_ = 0;
};

} // namespace pracleak

#endif // PRACLEAK_MITIGATION_PARA_H
