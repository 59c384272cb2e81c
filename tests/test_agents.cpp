/**
 * @file
 * Unit tests for the attack building-block agents (probe, hammer)
 * and the AttackHarness itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "attack/agents.h"
#include "attack/harness.h"
#include "dram/timing_checker.h"

namespace pracleak {
namespace {

ControllerConfig
quietConfig()
{
    ControllerConfig config;
    config.mode = MitigationMode::NoMitigation;
    config.refreshEnabled = false;
    return config;
}

TEST(ProbeAgentTest, KeepsExactlyOneReadInFlight)
{
    AttackHarness harness(DramSpec::ddr5_8000b(), quietConfig());
    ProbeAgent probe(harness.mem().mapper().compose(
        DramAddress{0, 0, 0, 3, 0}));
    harness.add(&probe);

    std::size_t max_depth = 0;
    for (int i = 0; i < 50000; ++i) {
        harness.step();
        max_depth = std::max(max_depth, harness.mem().queueDepth());
    }
    EXPECT_EQ(max_depth, 1u);
    EXPECT_GT(probe.completed(), 500u);
}

TEST(ProbeAgentTest, SamplesAreMonotoneInTime)
{
    AttackHarness harness(DramSpec::ddr5_8000b(), quietConfig());
    ProbeAgent probe(harness.mem().mapper().compose(
        DramAddress{0, 0, 0, 3, 0}));
    harness.add(&probe);
    harness.run(nsToCycles(50000));

    Cycle prev = 0;
    for (const auto &sample : probe.samples()) {
        EXPECT_GT(sample.doneAt, prev);
        prev = sample.doneAt;
    }
}

TEST(ProbeAgentTest, OpenPageProbingAvoidsSelfActivations)
{
    // The spy's whole point: its own row stays open, so its counter
    // never climbs and it cannot self-trigger an Alert.
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 64;
    ControllerConfig config;
    config.mode = MitigationMode::AboOnly;
    config.refreshEnabled = false;
    AttackHarness harness(spec, config);
    ProbeAgent probe(harness.mem().mapper().compose(
        DramAddress{0, 0, 0, 3, 0}));
    harness.add(&probe);

    harness.run(nsToCycles(500000));
    EXPECT_GT(probe.completed(), 5000u); // far more reads than NBO
    EXPECT_EQ(harness.mem().prac().alerts(), 0u);
    EXPECT_LE(harness.mem().prac().counters().maxEverSeen(), 2u);
}

TEST(HammerAgentTest, DeliversExactTargetActivations)
{
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 100000; // never alert
    AttackHarness harness(spec, quietConfig());
    const AddressMapper &mapper = harness.mem().mapper();

    const DramAddress target{0, 4, 2, 0x100, 0};
    std::vector<DramAddress> decoys{{0, 4, 2, 0x200, 0},
                                    {0, 4, 2, 0x201, 0}};
    HammerAgent hammer(mapper, target, decoys);
    harness.add(&hammer);

    hammer.startHammer(150);
    harness.runUntil([&] { return hammer.done(); }, nsToCycles(1e6));

    ASSERT_TRUE(hammer.done());
    EXPECT_EQ(hammer.targetActsDone(), 150u);
    // Ground truth: the PRAC counter saw exactly those activations.
    EXPECT_EQ(harness.mem().prac().counters().get(
                  mapper.flatBank(target), target.row),
              150u);
}

TEST(HammerAgentTest, DecoysShareTheRemainingActivations)
{
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 100000;
    AttackHarness harness(spec, quietConfig());
    const AddressMapper &mapper = harness.mem().mapper();

    const DramAddress target{0, 4, 2, 0x100, 0};
    std::vector<DramAddress> decoys;
    for (std::uint32_t i = 0; i < 4; ++i)
        decoys.push_back(DramAddress{0, 4, 2, 0x200 + i, 0});
    HammerAgent hammer(mapper, target, decoys);
    harness.add(&hammer);

    hammer.startHammer(160);
    harness.runUntil([&] { return hammer.done(); }, nsToCycles(1e6));

    // Each of the 4 decoys got ~1/4 of the target's count.
    for (std::uint32_t i = 0; i < 4; ++i) {
        const std::uint32_t count =
            harness.mem().prac().counters().get(
                mapper.flatBank(target), 0x200 + i);
        EXPECT_NEAR(static_cast<double>(count), 40.0, 3.0);
    }
}

TEST(HammerAgentTest, StopAbortsBurst)
{
    AttackHarness harness(DramSpec::ddr5_8000b(), quietConfig());
    const AddressMapper &mapper = harness.mem().mapper();
    const DramAddress target{0, 4, 2, 0x100, 0};
    HammerAgent hammer(mapper, target, {{0, 4, 2, 0x200, 0}});
    harness.add(&hammer);

    hammer.startHammer(100000);
    harness.run(nsToCycles(5000));
    hammer.stop();
    const std::uint32_t at_stop = hammer.targetActsDone();
    harness.run(nsToCycles(5000));
    // Only the in-flight tail may complete after stop().
    EXPECT_LE(hammer.targetActsDone(), at_stop + 2);
}

TEST(HammerAgentTest, RateApproachesBankPipelineLimit)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    AttackHarness harness(spec, quietConfig());
    const AddressMapper &mapper = harness.mem().mapper();
    const DramAddress target{0, 4, 2, 0x100, 0};
    HammerAgent hammer(mapper, target,
                       {{0, 4, 2, 0x200, 0}, {0, 4, 2, 0x201, 0}});
    harness.add(&hammer);

    hammer.startHammer(200);
    const Cycle start = harness.now();
    harness.runUntil([&] { return hammer.done(); }, nsToCycles(1e6));
    const Cycle elapsed = harness.now() - start;

    // Two row cycles (target + decoy) per target activation; the bank
    // pipeline is tRP + tRCD + tRTP per row cycle.
    const Cycle per_act =
        2 * (spec.timing.tRP + spec.timing.tRCD + spec.timing.tRTP);
    EXPECT_LT(elapsed, 200 * per_act * 12 / 10);
}

TEST(HarnessTest, RunUntilStopsOnPredicate)
{
    AttackHarness harness(DramSpec::ddr5_8000b(), quietConfig());
    ProbeAgent probe(harness.mem().mapper().compose(
        DramAddress{0, 0, 0, 3, 0}));
    harness.add(&probe);

    harness.runUntil([&] { return probe.completed() >= 10; },
                     nsToCycles(1e6));
    EXPECT_GE(probe.completed(), 10u);
    EXPECT_LE(probe.completed(), 12u);
}

TEST(HarnessTest, AgentTrafficIsTimingClean)
{
    // Probe + hammer traffic cross-checked by the independent timing
    // verifier.
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 256;
    ControllerConfig config;
    config.mode = MitigationMode::AboOnly;
    AttackHarness harness(spec, config);
    TimingChecker checker(spec);
    harness.mem().dram().setTraceSink(
        [&](const Command &cmd, Cycle now) {
            checker.observe(cmd, now);
        });

    const AddressMapper &mapper = harness.mem().mapper();
    ProbeAgent probe(mapper.compose(DramAddress{0, 0, 0, 3, 0}));
    const DramAddress target{0, 4, 2, 0x100, 0};
    HammerAgent hammer(mapper, target,
                       {{0, 4, 2, 0x200, 0}, {0, 4, 2, 0x201, 0}});
    harness.add(&probe);
    harness.add(&hammer);

    hammer.startHammer(300);
    harness.run(nsToCycles(100000));

    EXPECT_TRUE(checker.clean())
        << checker.violations().front();
}

/**
 * One read in flight, then a fixed think time before the next: an
 * agent whose nextEventAt() is neither "now" nor "never", so the
 * event-driven harness has real gaps to jump.
 */
class ThinkingReader : public MemAgent
{
  public:
    ThinkingReader(std::vector<Addr> addrs, Cycle think)
        : addrs_(std::move(addrs)), think_(think)
    {
    }

    Cycle
    nextEventAt(Cycle now) const override
    {
        return inFlight_ ? kNeverCycle : std::max(now, readyAt_);
    }

    void
    tick(MemoryController &mem, Cycle now) override
    {
        if (inFlight_ || now < readyAt_)
            return;
        Request req;
        req.type = ReqType::Read;
        req.addr = addrs_[issued_ % addrs_.size()];
        req.onComplete = [this](const Request &done) {
            inFlight_ = false;
            readyAt_ = done.completed + think_;
            timeline_.emplace_back(done.completed, done.latency());
        };
        if (mem.enqueue(std::move(req))) {
            inFlight_ = true;
            ++issued_;
        }
    }

    const std::vector<std::pair<Cycle, Cycle>> &timeline() const
    {
        return timeline_;
    }

  private:
    std::vector<Addr> addrs_;
    Cycle think_;
    Cycle readyAt_ = 0;
    bool inFlight_ = false;
    std::size_t issued_ = 0;
    std::vector<std::pair<Cycle, Cycle>> timeline_;
};

/** Everything the lockstep oracle compares, for one harness run. */
struct OracleRun
{
    std::vector<std::vector<std::pair<Cycle, Cycle>>> timelines;
    std::vector<std::uint64_t> issueCounts;
    std::vector<std::uint64_t> prac;
    Cycle phaseEnd = 0;
    Cycle end = 0;
    std::uint64_t ticksFired = 0;
};

OracleRun
runThinkingReaders(std::uint32_t channels, bool lockstep)
{
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 32;
    ControllerConfig config;
    config.mode = MitigationMode::AboOnly;
    AttackHarness harness(spec, config, channels);

    // Two readers per channel: row conflicts in two banks drive ACTs,
    // Alerts and RFMs alongside refresh.
    std::vector<std::unique_ptr<ThinkingReader>> readers;
    for (std::uint32_t c = 0; c < channels; ++c) {
        const AddressMapper &mapper = harness.mem(c).mapper();
        auto row = [&](std::uint32_t bg, std::uint32_t r) {
            DramAddress da{0, bg, 0, r, 0};
            da.channel = c;
            return mapper.compose(da);
        };
        auto add = [&](std::vector<Addr> addrs, Cycle think) {
            readers.push_back(
                std::make_unique<ThinkingReader>(std::move(addrs), think));
            harness.add(readers.back().get(), c);
        };
        add({row(0, 10), row(0, 11)}, 397 + 50 * c);
        add({row(1, 20), row(1, 21), row(1, 22)}, 611);
    }

    auto enough = [&] { return readers[0]->timeline().size() >= 300; };
    const Cycle max_cycles = nsToCycles(1e6);
    const Cycle tail = nsToCycles(100000) + 17;
    OracleRun out;
    if (lockstep) {
        const Cycle end = harness.now() + max_cycles;
        while (!enough() && harness.now() < end)
            harness.step();
        out.phaseEnd = harness.now();
        for (Cycle c = 0; c < tail; ++c)
            harness.step();
    } else {
        harness.runUntil(enough, max_cycles);
        out.phaseEnd = harness.now();
        harness.run(tail);
    }
    out.end = harness.now();

    for (const auto &reader : readers)
        out.timelines.push_back(reader->timeline());
    for (std::uint32_t c = 0; c < channels; ++c) {
        const MemoryController &mem = harness.mem(c);
        for (std::size_t t = 0; t < 7; ++t)
            out.issueCounts.push_back(
                mem.dram().issueCount(static_cast<CmdType>(t)));
        out.prac.push_back(mem.prac().alerts());
        out.prac.push_back(mem.prac().mitigatedRows());
        out.prac.push_back(mem.prac().counters().maxEverSeen());
        for (std::uint32_t r = 10; r < 23; ++r)
            for (std::uint32_t bg = 0; bg < 2; ++bg)
                out.prac.push_back(mem.prac().counters().get(
                    mem.mapper().flatBank(DramAddress{0, bg, 0, r, 0}),
                    r));
        out.ticksFired += mem.schedCounters().ticksFired;
    }
    return out;
}

class HarnessClockOracle : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(HarnessClockOracle, EventRunMatchesLockstepSteps)
{
    const std::uint32_t channels = GetParam();
    const OracleRun lockstep = runThinkingReaders(channels, true);
    const OracleRun event = runThinkingReaders(channels, false);

    EXPECT_EQ(event.phaseEnd, lockstep.phaseEnd);
    EXPECT_EQ(event.end, lockstep.end);
    EXPECT_EQ(event.timelines, lockstep.timelines);
    EXPECT_EQ(event.issueCounts, lockstep.issueCounts);
    EXPECT_EQ(event.prac, lockstep.prac);

    // The run must exercise the Alert path, and the event clock must
    // skip most cycles: a regression to lockstep fires a tick per
    // cycle per channel.
    EXPECT_GT(lockstep.prac[0], 0u);
    EXPECT_EQ(lockstep.ticksFired, channels * lockstep.end);
    EXPECT_LT(event.ticksFired * 4, channels * event.end);
}

INSTANTIATE_TEST_SUITE_P(Channels, HarnessClockOracle,
                         ::testing::Values(1u, 2u));

} // namespace
} // namespace pracleak
