/**
 * @file
 * End-to-end tests of the PRACLeak AES side channel (Section 3.3) and
 * of TPRAC's empirical security validation (Section 6.1, Fig. 9).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "attack/side_channel.h"
#include "common/rng.h"
#include "sim/provenance.h"

namespace pracleak {
namespace {

Aes128T::Key
randomKey(std::uint64_t seed)
{
    Rng rng(seed);
    Aes128T::Key key;
    for (auto &byte : key)
        byte = static_cast<std::uint8_t>(rng.range(256));
    return key;
}

TEST(SideChannel, VictimHotLineDominates)
{
    SideChannelParams params;
    params.key = randomKey(1);
    params.p0 = 0x30;
    params.encryptions = 200;

    const SideChannelResult result = runAesSideChannel(params);

    // The line of x0 = p0 ^ k0 must have roughly double the
    // activations of any other line after the victim phase (paper
    // Fig. 4: ~1.19 vs ~0.19 per encryption for round-1-only traffic,
    // i.e. clearly separated).
    const int hot = (params.p0 ^ params.key[0]) >> 4;
    const std::uint32_t hot_count = result.victimActsPerRow[hot];
    EXPECT_GT(hot_count, 150u);
    for (int row = 0; row < 16; ++row) {
        if (row == hot)
            continue;
        EXPECT_LT(result.victimActsPerRow[row] * 2, hot_count)
            << "row " << row;
    }
}

TEST(SideChannel, RecoversKeyNibble)
{
    SideChannelParams params;
    params.key = randomKey(2);
    params.p0 = 0;
    params.encryptions = 200;

    const SideChannelResult result = runAesSideChannel(params);

    ASSERT_TRUE(result.spikeObserved);
    EXPECT_EQ(result.recoveredKeyNibble, params.key[0] >> 4);
    // Ground truth agrees: the Alert really came from the hot row.
    EXPECT_EQ(result.trueTriggerRow,
              (params.p0 ^ params.key[0]) >> 4);
}

TEST(SideChannel, RecoveryWorksForNonzeroPlaintextByte)
{
    SideChannelParams params;
    params.key = randomKey(3);
    params.p0 = 0xA5;
    params.encryptions = 200;

    const SideChannelResult result = runAesSideChannel(params);
    ASSERT_TRUE(result.spikeObserved);
    EXPECT_EQ(result.recoveredKeyNibble, params.key[0] >> 4);
}

TEST(SideChannel, AttackerActsComplementVictim)
{
    // Fig. 5(b): attacker activations to the trigger row plus victim
    // activations sum to ~NBO.
    SideChannelParams params;
    params.key = randomKey(4);
    params.encryptions = 200;

    const SideChannelResult result = runAesSideChannel(params);
    ASSERT_TRUE(result.spikeObserved);
    ASSERT_GE(result.trueTriggerRow, 0);

    const std::uint32_t victim =
        result.victimActsPerRow[result.trueTriggerRow];
    const std::uint32_t attacker = result.attackerActsToTrigger;
    EXPECT_NEAR(static_cast<double>(victim + attacker), 256.0, 16.0);
}

TEST(SideChannel, TpracPreventsLeak)
{
    // Fig. 9: with the defense, the row triggering the first RFM is
    // unrelated to the key.  Statistically: across several keys the
    // recovery rate must collapse to chance (~1/16).
    int correct = 0;
    const int trials = 8;
    for (int t = 0; t < trials; ++t) {
        SideChannelParams params;
        params.key = randomKey(100 + t);
        params.mode = MitigationMode::Tprac;
        params.encryptions = 200;
        params.probeLag = 3; // defense run: no calibration oracle

        const SideChannelResult result = runAesSideChannel(params);
        // TPRAC must never let the Alert fire.
        EXPECT_EQ(result.trueTriggerRow, -1);
        if (result.spikeObserved &&
            result.recoveredKeyNibble == (params.key[0] >> 4))
            ++correct;
    }
    EXPECT_LE(correct, 3) << "defense leaks: recovery above chance";
}

TEST(SideChannel, FewerEncryptionsThanPaperSuffice)
{
    // "leaking secret key bits in under 200 encryptions".
    SideChannelParams params;
    params.key = randomKey(5);
    params.encryptions = 160;

    const SideChannelResult result = runAesSideChannel(params);
    ASSERT_TRUE(result.spikeObserved);
    EXPECT_EQ(result.recoveredKeyNibble, params.key[0] >> 4);
}

/** Fig. 5 sweep: recovery holds across key-byte values. */
class KeySweep : public ::testing::TestWithParam<int>
{
};

TEST_P(KeySweep, RecoversTopNibble)
{
    SideChannelParams params;
    params.key = randomKey(40);
    params.key[0] = static_cast<std::uint8_t>(GetParam());
    params.encryptions = 200;
    params.seed = 9;

    const SideChannelResult result =
        runAesSideChannelMajority(params, 3);
    ASSERT_TRUE(result.spikeObserved);
    EXPECT_EQ(result.recoveredKeyNibble, GetParam() >> 4);
}

INSTANTIATE_TEST_SUITE_P(KeyByteValues, KeySweep,
                         ::testing::Values(0x00, 0x13, 0x2a, 0x47,
                                           0x5c, 0x6f, 0x81, 0x9e,
                                           0xb2, 0xc5, 0xd8, 0xeb,
                                           0xff));

/**
 * Timeline golden: every field of one recorded attack, hashed, per
 * defense.  The digests were captured on the lockstep harness clock;
 * any drift in the victim/prober/controller interleaving -- one probe
 * completing a cycle late, one ACT moving, a phase ending elsewhere --
 * changes them.
 */
struct TimelineCase
{
    const char *name;
    MitigationMode mode;
    double spikeThresholdNs;
    int probeLag;
    const char *digest;
};

void
PrintTo(const TimelineCase &c, std::ostream *os)
{
    *os << c.name;
}

std::string
timelineDigest(const SideChannelResult &r)
{
    std::ostringstream out;
    out << "acts";
    for (const std::uint32_t acts : r.victimActsPerRow)
        out << ' ' << acts;
    out << "\nspike " << r.spikeObserved << ' ' << r.spikeProbeIndex
        << ' ' << r.estimatedTriggerRow << ' ' << r.trueTriggerRow << ' '
        << r.attackerActsToTrigger << ' ' << r.recoveredKeyNibble
        << "\nend " << r.victimPhaseEnd << "\nprobe";
    for (const LatencySample &s : r.probeTimeline)
        out << ' ' << s.doneAt << ':' << s.latency;
    out << "\nrfm";
    for (const Cycle at : r.rfmTimes)
        out << ' ' << at;
    out << "\nact";
    for (const auto &[at, row] : r.actTimeline)
        out << ' ' << at << ':' << row;
    return sim::hashHex(sim::fnv1a64(out.str()));
}

class TimelineGolden : public ::testing::TestWithParam<TimelineCase>
{
};

TEST_P(TimelineGolden, DigestIsPinned)
{
    const TimelineCase &c = GetParam();
    SideChannelParams params;
    params.key = randomKey(7);
    params.p0 = 0x30;
    params.encryptions = 200;
    params.mode = c.mode;
    params.spikeThresholdNs = c.spikeThresholdNs;
    params.probeLag = c.probeLag;
    params.recordTimeline = true;

    const SideChannelResult result = runAesSideChannel(params);
    ASSERT_TRUE(result.spikeObserved);
    EXPECT_FALSE(result.actTimeline.empty());
    EXPECT_EQ(timelineDigest(result), c.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Defenses, TimelineGolden,
    ::testing::Values(
        TimelineCase{"abo_only", MitigationMode::AboOnly, 0.0, -1,
                     "9bc765196d8cd757"},
        TimelineCase{"abo_acb_rfm", MitigationMode::AboAcb, 400.0, 3,
                     "205831bb6476123a"},
        TimelineCase{"tprac", MitigationMode::Tprac, 400.0, 3,
                     "736796c6c5cbf4a9"},
        TimelineCase{"obfuscation", MitigationMode::Obfuscation, 400.0, 3,
                     "c810b1fa8947ae9a"}),
    [](const ::testing::TestParamInfo<TimelineCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace pracleak
