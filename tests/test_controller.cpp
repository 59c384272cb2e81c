/**
 * @file
 * Integration tests for the memory controller: request service,
 * open-page behaviour and FR-FCFS deferrals, refresh cadence, the RFM
 * flows of every mitigation mode, the events that reset a bank's
 * wake bound, and a golden digest of the scheduler's command stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "attack/harness.h"
#include "common/rng.h"
#include "mem/controller.h"
#include "mitigation/registry.h"

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

/** Enqueue one request to @p da (asserting it was accepted). */
void
enqueueAt(MemoryController &mem, ReqType type, const DramAddress &da)
{
    Request req;
    req.type = type;
    req.addr = mem.mapper().compose(da);
    ASSERT_TRUE(mem.enqueue(std::move(req)));
}

/** Run @p mem for @p cycles and return the commands it issued. */
std::vector<std::string>
commandsOver(MemoryController &mem, Cycle cycles)
{
    std::vector<std::string> log;
    mem.dram().setTraceSink([&log](const Command &cmd, Cycle) {
        log.push_back(cmd.str());
    });
    mem.run(cycles);
    mem.dram().setTraceSink(nullptr);
    return log;
}

/** No refresh and no defense: only the demand scheduler issues. */
ControllerConfig
directedConfig(std::uint32_t frfcfs_cap)
{
    ControllerConfig config;
    config.refreshEnabled = false;
    config.frfcfsCap = frfcfs_cap;
    return config;
}

TEST(Controller, HitAtCapWaitsBehindOlderSameBankConflict)
{
    // Cap 2: two hits to row 10 fill the streak, so the third row-10
    // hit must let the older row-20 conflict precharge first.
    const DramSpec spec = specWith(1024);
    MemoryController mem(spec, directedConfig(2));
    enqueueAt(mem, ReqType::Read, {0, 0, 0, 10, 0});
    enqueueAt(mem, ReqType::Read, {0, 0, 0, 20, 0});
    enqueueAt(mem, ReqType::Read, {0, 0, 0, 10, 1});
    enqueueAt(mem, ReqType::Read, {0, 0, 0, 10, 2});

    const std::vector<std::string> expected = {
        "ACT r0 bg0 b0 row10", "RD r0 bg0 b0 col0",
        "RD r0 bg0 b0 col1",   "PRE r0 bg0 b0",
        "ACT r0 bg0 b0 row20", "RD r0 bg0 b0 col0",
        "PRE r0 bg0 b0",       "ACT r0 bg0 b0 row10",
        "RD r0 bg0 b0 col2",
    };
    EXPECT_EQ(commandsOver(mem, 4000), expected);
    EXPECT_EQ(mem.queueDepth(), 0u);
}

TEST(Controller, PreHeldBelowCapWhileQueuedRequestHitsOpenRow)
{
    // Row 10 of bank 0 is open and long past tRAS, and another bank
    // has just written, so a read hit must wait out the write-to-read
    // turnaround while a PRE would be legal at once.  The older
    // row-20 conflict's PRE is still held below the cap until the
    // younger row-10 hit has issued.
    const DramSpec spec = specWith(1024);
    MemoryController mem(spec, directedConfig(4));
    enqueueAt(mem, ReqType::Read, {0, 0, 0, 10, 0});
    EXPECT_EQ(commandsOver(mem, 500),
              (std::vector<std::string>{"ACT r0 bg0 b0 row10",
                                        "RD r0 bg0 b0 col0"}));
    enqueueAt(mem, ReqType::Write, {0, 1, 0, 5, 0});
    EXPECT_EQ(commandsOver(mem, spec.timing.tRCD + 1),
              (std::vector<std::string>{"ACT r0 bg1 b0 row5",
                                        "WR r0 bg1 b0 col0"}));
    enqueueAt(mem, ReqType::Read, {0, 0, 0, 20, 0});
    enqueueAt(mem, ReqType::Read, {0, 0, 0, 10, 1});

    const std::vector<std::string> expected = {
        "RD r0 bg0 b0 col1",
        "PRE r0 bg0 b0",
        "ACT r0 bg0 b0 row20",
        "RD r0 bg0 b0 col0",
    };
    EXPECT_EQ(commandsOver(mem, 2000), expected);
    EXPECT_EQ(mem.queueDepth(), 0u);
}

TEST(Controller, PreReleasedAtCapDespiteQueuedHit)
{
    // Cap 3: the older row-20 conflict waits while row-10 hits are
    // queued, and precharges once three hits have filled the streak
    // even though a fourth row-10 hit is still queued.
    const DramSpec spec = specWith(1024);
    MemoryController mem(spec, directedConfig(3));
    enqueueAt(mem, ReqType::Read, {0, 0, 0, 10, 0});
    enqueueAt(mem, ReqType::Read, {0, 0, 0, 20, 0});
    enqueueAt(mem, ReqType::Read, {0, 0, 0, 10, 1});
    enqueueAt(mem, ReqType::Read, {0, 0, 0, 10, 2});
    enqueueAt(mem, ReqType::Read, {0, 0, 0, 10, 3});

    const std::vector<std::string> expected = {
        "ACT r0 bg0 b0 row10", "RD r0 bg0 b0 col0",
        "RD r0 bg0 b0 col1",   "RD r0 bg0 b0 col2",
        "PRE r0 bg0 b0",       "ACT r0 bg0 b0 row20",
        "RD r0 bg0 b0 col0",   "PRE r0 bg0 b0",
        "ACT r0 bg0 b0 row10", "RD r0 bg0 b0 col3",
    };
    EXPECT_EQ(commandsOver(mem, 4000), expected);
    EXPECT_EQ(mem.queueDepth(), 0u);
}

TEST(Controller, OlderOfReadAndWriteHitIssuesFirst)
{
    // After the ACT both CAS flavours become legal on the same cycle:
    // the older request goes first, whichever its direction.
    const DramSpec spec = specWith(1024);
    for (const bool write_first : {true, false}) {
        MemoryController mem(spec, directedConfig(4));
        const ReqType first = write_first ? ReqType::Write
                                          : ReqType::Read;
        const ReqType second = write_first ? ReqType::Read
                                           : ReqType::Write;
        enqueueAt(mem, first, {0, 0, 0, 10, 0});
        enqueueAt(mem, second, {0, 0, 0, 10, 1});

        const std::vector<std::string> expected = {
            "ACT r0 bg0 b0 row10",
            write_first ? "WR r0 bg0 b0 col0" : "RD r0 bg0 b0 col0",
            write_first ? "RD r0 bg0 b0 col1" : "WR r0 bg0 b0 col1",
        };
        EXPECT_EQ(commandsOver(mem, 2000), expected)
            << (write_first ? "write first" : "read first");
    }
}

TEST(Controller, RfmPbDrainBlocksOnlyItsBank)
{
    // TPRAC-PB's first per-bank RFM targets flat bank 0 at cycle
    // kWindow.  Bank 0 writes column 0 just before it, so the drain's
    // PRE waits out tWR while bank 0's second write is already legal:
    // the drain holds that write until PRE + RFMpb, and the other
    // bank's read proceeds during the drain.
    constexpr Cycle kWindow = 1000;
    const DramSpec spec = specWith(1024);
    ControllerConfig config = directedConfig(4);
    config.mitigation = "tprac";
    config.tbRfm.perBank = true;
    config.tbRfm.windowCycles = kWindow * spec.org.totalBanks();
    MemoryController mem(spec, config);
    mem.run(kWindow - spec.timing.tRCD - 6);
    enqueueAt(mem, ReqType::Write, {0, 0, 0, 10, 0});
    enqueueAt(mem, ReqType::Write, {0, 0, 0, 10, 1});
    enqueueAt(mem, ReqType::Read, {0, 1, 0, 10, 0});

    const std::vector<std::string> expected = {
        "ACT r0 bg0 b0 row10", "ACT r0 bg1 b0 row10",
        "WR r0 bg0 b0 col0",   "RD r0 bg1 b0 col0",
        "PRE r0 bg0 b0",       "RFMpb r0 bg0 b0",
        "RFMpb r0 bg0 b1",     "ACT r0 bg0 b0 row10",
        "WR r0 bg0 b0 col1",
    };
    EXPECT_EQ(commandsOver(mem, 2000), expected);
    EXPECT_EQ(mem.queueDepth(), 0u);
}

TEST(Controller, RefreshDrainBlocksOnlyItsRank)
{
    // Rank 0's first refresh is due at tREFI / ranks.  Rank 0 writes
    // column 0 just before, so the drain's PRE waits out tWR while
    // rank 0's second write is already legal: the drain holds that
    // write until PRE + REFab, and rank 1's read proceeds during it.
    const DramSpec spec = specWith(1024);
    ControllerConfig config;
    MemoryController mem(spec, config);
    const Cycle due = spec.timing.tREFI / spec.org.ranks;
    mem.run(due - spec.timing.tRCD - 6);
    enqueueAt(mem, ReqType::Write, {0, 0, 0, 10, 0});
    enqueueAt(mem, ReqType::Write, {0, 0, 0, 10, 1});
    enqueueAt(mem, ReqType::Read, {1, 0, 0, 10, 0});

    const std::vector<std::string> expected = {
        "ACT r0 bg0 b0 row10", "ACT r1 bg0 b0 row10",
        "WR r0 bg0 b0 col0",   "RD r1 bg0 b0 col0",
        "PRE r0 bg0 b0",       "REFab r0 bg0 b0",
        "ACT r0 bg0 b0 row10", "WR r0 bg0 b0 col1",
    };
    // Stop before rank 1's refresh falls due at 2 * due.
    EXPECT_EQ(commandsOver(mem, due), expected);
    EXPECT_EQ(mem.queueDepth(), 0u);
}

/** A command and the cycle it issued on. */
using TimedCommand = std::pair<std::string, Cycle>;

/**
 * Advance @p mem with the event clock for @p cycles and return the
 * commands it issued to bank (0, 0, 0), with their cycles.
 */
std::vector<TimedCommand>
bankZeroCommandsOver(MemoryController &mem, Cycle cycles)
{
    std::vector<TimedCommand> log;
    mem.dram().setTraceSink([&log](const Command &cmd, Cycle at) {
        if (cmd.rank == 0 && cmd.bankGroup == 0 && cmd.bank == 0)
            log.emplace_back(cmd.str(), at);
    });
    mem.advanceTo(mem.now() + cycles);
    mem.dram().setTraceSink(nullptr);
    return log;
}

TEST(Controller, HitArrivingBehindHeldConflictIssuesWhenLegal)
{
    // Row 10 is opened and read, leaving only the row-20 conflict,
    // whose PRE waits out tRAS.  A row-10 read hit that arrives
    // meanwhile must issue on the first cycle its RD is legal, not
    // when the conflict's PRE would have been.
    DramSpec spec = specWith(1024);
    spec.timing.tRAS = 2 * spec.timing.tRCD;
    MemoryController mem(spec, directedConfig(4));
    enqueueAt(mem, ReqType::Read, {0, 0, 0, 10, 0});
    enqueueAt(mem, ReqType::Read, {0, 0, 0, 20, 0});
    const std::vector<TimedCommand> opened =
        bankZeroCommandsOver(mem, spec.timing.tRCD + 6);
    ASSERT_EQ(opened.size(), 2u);
    EXPECT_EQ(opened[1].first, "RD r0 bg0 b0 col0");

    enqueueAt(mem, ReqType::Read, {0, 0, 0, 10, 1});
    const Cycle rd_at = std::max(
        mem.now(),
        mem.dram().earliestIssue(Command{CmdType::RD, 0, 0, 0, 10, 1}));
    const Cycle pre_at =
        mem.dram().earliestIssue(Command{CmdType::PRE, 0, 0, 0, 0, 0});
    ASSERT_LT(rd_at, pre_at); // the hit is legal before the PRE

    const std::vector<TimedCommand> rest =
        bankZeroCommandsOver(mem, 2000);
    ASSERT_EQ(rest.size(), 4u);
    EXPECT_EQ(rest[0], TimedCommand("RD r0 bg0 b0 col1", rd_at));
    EXPECT_EQ(rest[1], TimedCommand("PRE r0 bg0 b0", pre_at));
    EXPECT_EQ(rest[2].first, "ACT r0 bg0 b0 row20");
    EXPECT_EQ(rest[3].first, "RD r0 bg0 b0 col0");
}

TEST(Controller, DrainedBankResumesAtItsActCycle)
{
    // A write opens bank 0 just before a maintenance drain and waits
    // out a tRCD longer than the drain's PRE, REFab or RFMpb and
    // recovery together.  The drain closes the bank while the write
    // is queued; the bank must reactivate on the first cycle its ACT
    // is legal, not when the write's CAS would have been.
    for (const bool refresh : {true, false}) {
        DramSpec spec = specWith(1024);
        spec.timing.tRCD = 2 * spec.timing.tRFC;
        ControllerConfig config = directedConfig(4);
        Cycle drain_at = 1000;
        if (refresh) {
            config.refreshEnabled = true;
            drain_at = spec.timing.tREFI / spec.org.ranks;
        } else {
            // TPRAC-PB's first RFMpb targets flat bank 0.
            config.mitigation = "tprac";
            config.tbRfm.perBank = true;
            config.tbRfm.windowCycles =
                drain_at * spec.org.totalBanks();
        }
        MemoryController mem(spec, config);
        mem.run(drain_at - 8);
        enqueueAt(mem, ReqType::Write, {0, 0, 0, 10, 0});

        // The ACT's legal cycle once the drain's REFab/RFMpb issued.
        Cycle act_at = kNeverCycle;
        std::vector<TimedCommand> log;
        mem.dram().setTraceSink([&](const Command &cmd, Cycle at) {
            if (cmd.rank != 0 || cmd.bankGroup != 0 || cmd.bank != 0)
                return;
            log.emplace_back(cmd.str(), at);
            if (cmd.type == CmdType::REFab || cmd.type == CmdType::RFMpb)
                act_at = mem.dram().earliestIssue(
                    Command{CmdType::ACT, 0, 0, 0, 10, 0});
        });
        while (log.size() < 4 && mem.now() < drain_at + spec.timing.tRCD)
            mem.advanceTo(mem.now() + 1);
        mem.dram().setTraceSink(nullptr);

        const std::string label = refresh ? "refresh" : "RFMpb";
        ASSERT_EQ(log.size(), 4u) << label;
        EXPECT_EQ(log[0].first, "ACT r0 bg0 b0 row10") << label;
        EXPECT_EQ(log[1].first, "PRE r0 bg0 b0") << label;
        EXPECT_EQ(log[2].first,
                  refresh ? "REFab r0 bg0 b0" : "RFMpb r0 bg0 b0")
            << label;
        EXPECT_EQ(log[3], TimedCommand("ACT r0 bg0 b0 row10", act_at))
            << label;
        // The premise: the write's CAS was bounded past that ACT.
        EXPECT_LT(act_at, log[0].second + spec.timing.tRCD) << label;
    }
}

/** 64-bit FNV-1a over little-endian words. */
struct Fnv1a
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;

    void
    mix(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (word >> (8 * i)) & 0xffu;
            hash *= 0x100000001b3ULL;
        }
    }
};

/**
 * Digest of every command (cmd, rank, bg, bank, row, col, cycle) and
 * every completion cycle of a controller kept at queue capacity by
 * seeded random reads and writes over a few banks and rows: enough
 * same-bank contention that streak-cap deferrals and held PREs fire
 * constantly, and a low NBO so ABO service (and with it the ABOACT
 * block on ACTs) and the per-bank RFM drains fire too.
 */
std::uint64_t
schedulerDigest(const std::string &defense, std::uint32_t frfcfs_cap,
                std::uint32_t ranks)
{
    DramSpec spec = specWith(64);
    spec.org.ranks = ranks;
    ControllerConfig config;
    config.queueCapacity = 16;
    config.frfcfsCap = frfcfs_cap;
    configureDefense(config, defense, spec);
    MemoryController mem(spec, config);

    Fnv1a digest;
    mem.dram().setTraceSink([&digest](const Command &cmd, Cycle at) {
        digest.mix(static_cast<std::uint64_t>(cmd.type));
        digest.mix(cmd.rank);
        digest.mix(cmd.bankGroup);
        digest.mix(cmd.bank);
        digest.mix(cmd.row);
        digest.mix(cmd.col);
        digest.mix(at);
    });

    Rng rng(0x5CED + frfcfs_cap * 16 + ranks);
    constexpr Cycle kCycles = 200000;
    while (mem.now() < kCycles) {
        while (mem.canAccept()) {
            const DramAddress da{
                static_cast<std::uint32_t>(rng.range(ranks)),
                static_cast<std::uint32_t>(rng.range(2)),
                static_cast<std::uint32_t>(rng.range(2)),
                static_cast<std::uint32_t>(rng.range(3)),
                static_cast<std::uint32_t>(rng.range(64))};
            Request req;
            req.type = rng.chance(0.3) ? ReqType::Write : ReqType::Read;
            req.addr = mem.mapper().compose(da);
            req.onComplete = [&digest](const Request &done) {
                digest.mix(done.completed);
            };
            mem.enqueue(std::move(req));
        }
        mem.advanceTo(mem.now() + 1);
    }
    return digest.hash;
}

TEST(Controller, SchedulerGolden)
{
    // Every registry key x streak cap {1, 4} x ranks {1, 2}.  PARA
    // refreshes inside the DRAM, so its command stream equals "none".
    struct Pin
    {
        const char *defense;
        std::uint32_t cap;
        std::uint32_t ranks;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {"none", 1, 1, 0x9bd3b5989d6b2221ULL},
        {"none", 1, 2, 0x26601e71897adde5ULL},
        {"none", 4, 1, 0x5977d71bc5226e5bULL},
        {"none", 4, 2, 0xc1fc9d047442abfdULL},
        {"abo-only", 1, 1, 0x00031794973d151fULL},
        {"abo-only", 1, 2, 0xcd179cda9f24d642ULL},
        {"abo-only", 4, 1, 0x853be319360de8f6ULL},
        {"abo-only", 4, 2, 0x22a1561a97fa8bd6ULL},
        {"abo+acb-rfm", 1, 1, 0xfdde01ac914fe252ULL},
        {"abo+acb-rfm", 1, 2, 0x15eccdc1663015a7ULL},
        {"abo+acb-rfm", 4, 1, 0x607f1f7521a2e1faULL},
        {"abo+acb-rfm", 4, 2, 0x95f9b692948e8eb3ULL},
        {"tprac", 1, 1, 0x6c900882d0f18b87ULL},
        {"tprac", 1, 2, 0xb7315b38497fda6cULL},
        {"tprac", 4, 1, 0x9ce4c8519f38cfbfULL},
        {"tprac", 4, 2, 0x9c9b5552199d4377ULL},
        {"obfuscation", 1, 1, 0xf3685a716665d25cULL},
        {"obfuscation", 1, 2, 0xd7c6c960e2e50b70ULL},
        {"obfuscation", 4, 1, 0x9145ad56a50d0bbeULL},
        {"obfuscation", 4, 2, 0xee82177d7cd7486fULL},
        {"para", 1, 1, 0x9bd3b5989d6b2221ULL},
        {"para", 1, 2, 0x26601e71897adde5ULL},
        {"para", 4, 1, 0x5977d71bc5226e5bULL},
        {"para", 4, 2, 0xc1fc9d047442abfdULL},
        {"graphene", 1, 1, 0x3b54f209870e7dd5ULL},
        {"graphene", 1, 2, 0x0f8a73b37517b005ULL},
        {"graphene", 4, 1, 0x51f9de43a201854cULL},
        {"graphene", 4, 2, 0x4c48c06b3363620dULL},
        {"pb-rfm", 1, 1, 0x46e33f615e7e574dULL},
        {"pb-rfm", 1, 2, 0xfcfd7535a3a132c5ULL},
        {"pb-rfm", 4, 1, 0xb2353f7904290a0fULL},
        {"pb-rfm", 4, 2, 0xc03a8f481b1df565ULL},
    };
    ASSERT_EQ(std::size(pins), mitigationCatalog().size() * 4);
    for (const Pin &pin : pins)
        EXPECT_EQ(schedulerDigest(pin.defense, pin.cap, pin.ranks),
                  pin.digest)
            << pin.defense << " cap " << pin.cap << " ranks "
            << pin.ranks;
}

} // namespace
} // namespace pracleak
