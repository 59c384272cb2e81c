/**
 * @file
 * Integration tests for the memory controller: request service,
 * open-page behaviour, refresh cadence, and the RFM flows of every
 * mitigation mode.
 */

#include <gtest/gtest.h>

#include "attack/harness.h"
#include "mem/controller.h"

namespace pracleak {
namespace {

DramSpec
specWith(std::uint32_t nbo, std::uint32_t nmit = 1)
{
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = nbo;
    spec.prac.nmit = nmit;
    return spec;
}

/** Issue one read and spin until completion; returns latency. */
Cycle
readOnce(MemoryController &mem, Addr addr)
{
    Cycle latency = kNeverCycle;
    Request req;
    req.type = ReqType::Read;
    req.addr = addr;
    req.onComplete = [&](const Request &done) {
        latency = done.latency();
    };
    EXPECT_TRUE(mem.enqueue(std::move(req)));
    for (int i = 0; i < 100000 && latency == kNeverCycle; ++i)
        mem.tick();
    EXPECT_NE(latency, kNeverCycle);
    return latency;
}

TEST(Controller, ColdReadLatency)
{
    const DramSpec spec = specWith(1024);
    ControllerConfig config;
    config.refreshEnabled = false;
    MemoryController mem(spec, config);

    const Cycle latency = readOnce(mem, 0x1000000);
    // ACT + tRCD + tCL + tBL plus a couple of scheduling cycles.
    const Cycle floor = spec.timing.tRCD + spec.timing.readLatency();
    EXPECT_GE(latency, floor);
    EXPECT_LE(latency, floor + 10);
}

TEST(Controller, RowHitFasterThanConflict)
{
    const DramSpec spec = specWith(1024);
    ControllerConfig config;
    config.refreshEnabled = false;
    MemoryController mem(spec, config);
    const AddressMapper &mapper = mem.mapper();

    const Addr row_a = mapper.compose(DramAddress{0, 0, 0, 10, 0});
    const Addr row_a2 = mapper.compose(DramAddress{0, 0, 0, 10, 5});
    const Addr row_b = mapper.compose(DramAddress{0, 0, 0, 11, 0});

    readOnce(mem, row_a);
    const Cycle hit = readOnce(mem, row_a2);     // same open row
    const Cycle conflict = readOnce(mem, row_b); // needs PRE + ACT
    EXPECT_LT(hit, conflict);
    EXPECT_GE(conflict, hit + spec.timing.tRP);
}

TEST(Controller, WritesComplete)
{
    const DramSpec spec = specWith(1024);
    ControllerConfig config;
    config.refreshEnabled = false;
    MemoryController mem(spec, config);

    bool done = false;
    Request req;
    req.type = ReqType::Write;
    req.addr = 0x2000000;
    req.onComplete = [&](const Request &) { done = true; };
    ASSERT_TRUE(mem.enqueue(std::move(req)));
    for (int i = 0; i < 10000 && !done; ++i)
        mem.tick();
    EXPECT_TRUE(done);
    EXPECT_EQ(mem.dram().issueCount(CmdType::WR), 1u);
}

TEST(Controller, QueueCapacityRespected)
{
    const DramSpec spec = specWith(1024);
    ControllerConfig config;
    config.queueCapacity = 4;
    MemoryController mem(spec, config);

    for (int i = 0; i < 4; ++i) {
        Request req;
        req.addr = static_cast<Addr>(i) << 20;
        EXPECT_TRUE(mem.enqueue(std::move(req)));
    }
    Request overflow;
    overflow.addr = 0x5000000;
    EXPECT_FALSE(mem.enqueue(std::move(overflow)));
    EXPECT_FALSE(mem.canAccept());
}

TEST(Controller, RefreshCadenceMatchesTrefi)
{
    const DramSpec spec = specWith(1024);
    ControllerConfig config;
    MemoryController mem(spec, config);

    // Ten tREFI of idle time: every rank refreshes every tREFI.
    mem.run(spec.timing.tREFI * 10);
    const std::uint64_t refs = mem.dram().issueCount(CmdType::REFab);
    EXPECT_GE(refs, 36u); // 4 ranks x ~9-10 windows
    EXPECT_LE(refs, 44u);
}

TEST(Controller, NoMitigationIssuesNoRfms)
{
    const DramSpec spec = specWith(64); // tiny NBO
    ControllerConfig config;
    config.mitigation = "none";
    AttackHarness harness(spec, config);

    // Hammer far past NBO via raw requests.
    const AddressMapper &mapper = harness.mem().mapper();
    for (int i = 0; i < 200; ++i) {
        const std::uint32_t row = 100 + (i % 2);
        Request req;
        req.addr = mapper.compose(DramAddress{0, 0, 0, row, 0});
        harness.mem().enqueue(std::move(req));
        harness.run(spec.timing.tRC * 3);
    }
    EXPECT_EQ(harness.mem().dram().issueCount(CmdType::RFMab), 0u);
    EXPECT_EQ(harness.mem().prac().alerts(), 0u);
}

TEST(Controller, AboServiceIssuesNmitRfms)
{
    const DramSpec spec = specWith(32, 4);
    ControllerConfig config;
    config.mitigation = "abo-only";
    config.refreshEnabled = false;
    MemoryController mem(spec, config);
    const AddressMapper &mapper = mem.mapper();

    // Hammer one target row, alternating with rotating decoys so
    // only the target crosses NBO = 32.
    for (int i = 0; i < 80; ++i) {
        const std::uint32_t row =
            (i % 2) ? 100u : 200u + (static_cast<std::uint32_t>(i) % 8);
        Request req;
        req.addr = mapper.compose(DramAddress{0, 0, 0, row, 0});
        mem.enqueue(std::move(req));
        mem.run(spec.timing.tRC * 3);
    }
    mem.run(spec.timing.tRFMab * 8);
    EXPECT_EQ(mem.prac().alerts(), 1u);
    EXPECT_EQ(mem.rfmCount(RfmReason::Abo), 4u);
    EXPECT_EQ(mem.dram().issueCount(CmdType::RFMab), 4u);
}

TEST(Controller, AcbIssuesProactiveRfms)
{
    const DramSpec spec = specWith(1024);
    ControllerConfig config;
    config.mitigation = "abo+acb-rfm";
    config.bat = 16;
    config.refreshEnabled = false;
    MemoryController mem(spec, config);
    const AddressMapper &mapper = mem.mapper();

    // 40 activations in one bank: BAT=16 -> at least two ACB-RFMs.
    for (int i = 0; i < 40; ++i) {
        Request req;
        req.addr = mapper.compose(
            DramAddress{0, 0, 0, 100u + (i % 4), 0});
        mem.enqueue(std::move(req));
        mem.run(spec.timing.tRC * 3);
    }
    mem.run(spec.timing.tRFMab * 4);
    EXPECT_GE(mem.rfmCount(RfmReason::Acb), 2u);
    EXPECT_EQ(mem.prac().alerts(), 0u); // far below NBO
}

TEST(Controller, TpracIssuesPeriodicRfmsWhenIdle)
{
    const DramSpec spec = specWith(1024);
    ControllerConfig config;
    config.mitigation = "tprac";
    config.tbRfm.windowCycles = spec.timing.tREFI; // 1 tREFI
    MemoryController mem(spec, config);

    mem.run(spec.timing.tREFI * 10);
    // Activity-INDEPENDENT: RFMs flow with zero demand traffic.
    EXPECT_GE(mem.rfmCount(RfmReason::TimingBased), 8u);
    EXPECT_LE(mem.rfmCount(RfmReason::TimingBased), 11u);
}

TEST(Controller, TpracRfmRateIndependentOfLoad)
{
    const DramSpec spec = specWith(1024);
    auto run_with_traffic = [&](bool traffic) {
        ControllerConfig config;
        config.mitigation = "tprac";
        config.tbRfm.windowCycles = spec.timing.tREFI;
        MemoryController mem(spec, config);
        const AddressMapper &mapper = mem.mapper();
        const Cycle end = spec.timing.tREFI * 10;
        std::uint64_t issued = 0;
        while (mem.now() < end) {
            if (traffic && mem.canAccept()) {
                Request req;
                req.addr = mapper.compose(DramAddress{
                    0, 0, 0,
                    static_cast<std::uint32_t>(issued++ % 64), 0});
                mem.enqueue(std::move(req));
            }
            mem.tick();
        }
        return mem.rfmCount(RfmReason::TimingBased);
    };

    const std::uint64_t idle = run_with_traffic(false);
    const std::uint64_t busy = run_with_traffic(true);
    // The defining TPRAC property (Fig. 6): RFM cadence does not
    // depend on memory activity.
    EXPECT_NEAR(static_cast<double>(idle), static_cast<double>(busy),
                1.0);
}

TEST(Controller, ReadLatencyHistogramPopulated)
{
    const DramSpec spec = specWith(1024);
    ControllerConfig config;
    StatSet stats;
    MemoryController mem(spec, config, &stats);
    readOnce(mem, 0x123440);
    ASSERT_TRUE(stats.hasHistogram("mem.read_latency_ns"));
    EXPECT_EQ(stats.getHistogram("mem.read_latency_ns").count(), 1u);
}

} // namespace
} // namespace pracleak
