/**
 * @file
 * Memory-level attack harness.
 *
 * PRACLeak's covert and side channels operate below the caches (the
 * attacker flushes or bypasses them), so attack experiments drive the
 * memory controller directly with cycle-stepped *agents* -- exactly
 * how the paper runs spy/trojan/victim traces in Ramulator2.
 *
 * The harness can own several interleaved channels (one controller
 * per channel, one shared clock); each agent is pinned to one channel,
 * which is how cross-channel experiments place a victim and a spy on
 * different PRAC engines.  The default is the classic single-channel
 * harness.
 *
 * The clock is event-driven: run()/runUntil() jump straight to the
 * earliest cycle at which any agent (MemAgent::nextEventAt) or any
 * channel (MemoryController::nextWorkAt) could act, and step() only
 * there.  Both bounds are never late, so every run is bit-identical
 * to calling step() once per cycle -- see src/attack/DESIGN.md.
 */

#ifndef PRACLEAK_ATTACK_HARNESS_H
#define PRACLEAK_ATTACK_HARNESS_H

#include <memory>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "mem/controller.h"

namespace pracleak {

/** A process-like actor issuing memory requests each cycle. */
class MemAgent
{
  public:
    virtual ~MemAgent() = default;

    /** Called on every stepped cycle, before the controllers tick. */
    virtual void tick(MemoryController &mem, Cycle now) = 0;

    /**
     * Earliest cycle >= @p now at which tick() could do anything.
     * The harness skips the cycles before it, so the bound must
     * never be late.  kNeverCycle means only a request completion
     * can wake the agent: completions with an onComplete are already
     * in the controller's own bound.  The default, @p now, ticks the
     * agent every cycle.
     */
    virtual Cycle nextEventAt(Cycle now) const { return now; }
};

/** Owns one controller per channel and steps agents against them. */
class AttackHarness
{
  public:
    /**
     * @param channels Interleaved channels to instantiate; config's
     *                 ChannelInterleave fan-out is overridden to
     *                 match.
     */
    AttackHarness(const DramSpec &spec, const ControllerConfig &config,
                  std::uint32_t channels = 1);

    /** Register an agent (not owned) pinned to @p channel. */
    void add(MemAgent *agent, std::uint32_t channel = 0);

    /** Run for @p cycles cycles. */
    void run(Cycle cycles);

    /**
     * Run until @p predicate() or @p max_cycles more cycles.  The
     * predicate is evaluated after each stepped cycle only: nothing
     * changes on a skipped one.
     */
    template <typename Pred>
    void
    runUntil(Pred predicate, Cycle max_cycles)
    {
        const Cycle end = now() + max_cycles;
        while (!predicate() && now() < end)
            advance(end);
    }

    /** Single cycle, ticking every agent and channel (lockstep). */
    void step();

    MemoryController &mem() { return *mems_[0]; }
    MemoryController &mem(std::uint32_t channel)
    {
        return *mems_[channel];
    }
    std::uint32_t channels() const
    {
        return static_cast<std::uint32_t>(mems_.size());
    }
    StatSet &stats() { return stats_; }
    Cycle now() const { return mems_[0]->now(); }

  private:
    /** Skip to the next event before @p end and step it, or to @p end. */
    void advance(Cycle end);

    struct Pinned
    {
        MemAgent *agent;
        std::uint32_t channel;
    };

    StatSet stats_;
    std::vector<std::unique_ptr<MemoryController>> mems_;
    std::vector<Pinned> agents_;
};

} // namespace pracleak

#endif // PRACLEAK_ATTACK_HARNESS_H
