#include "cpu/system.h"

#include <algorithm>

#include "common/log.h"

namespace pracleak {

double
RunResult::ipcSum() const
{
    double sum = 0.0;
    for (const auto &core : cores)
        sum += core.ipc;
    return sum;
}

double
RunResult::rbmpki() const
{
    std::uint64_t instrs = 0;
    for (const auto &core : cores)
        instrs += core.instrs;
    if (instrs == 0)
        return 0.0;
    return 1000.0 * static_cast<double>(rowMisses) /
           static_cast<double>(instrs);
}

double
normalizedPerf(const RunResult &design, const RunResult &baseline)
{
    if (design.cores.size() != baseline.cores.size())
        fatal("normalizedPerf: core-count mismatch");
    double sum = 0.0;
    for (std::size_t i = 0; i < design.cores.size(); ++i) {
        if (baseline.cores[i].ipc <= 0.0)
            fatal("normalizedPerf: zero baseline IPC");
        sum += design.cores[i].ipc / baseline.cores[i].ipc;
    }
    return sum / static_cast<double>(design.cores.size());
}

System::System(const SystemConfig &config,
               std::vector<std::unique_ptr<WorkloadSource>> sources)
    : config_(config), sources_(std::move(sources))
{
    if (config_.channels == 0 ||
        (config_.channels & (config_.channels - 1)) != 0)
        fatal("System: channels must be a non-zero power of two");

    ControllerConfig mem_config = config_.mem;
    mem_config.interleave.channels = config_.channels;
    mem_config.interleave.granularityBytes =
        config_.channelInterleaveBytes;
    mem_config.interleave.xorFold = config_.xorFoldChannelBits;

    mems_.reserve(config_.channels);
    std::vector<MemoryController *> mem_ptrs;
    for (std::uint32_t c = 0; c < config_.channels; ++c) {
        mem_config.channelIndex = c;
        mems_.push_back(std::make_unique<MemoryController>(
            config_.spec, mem_config, &stats_));
        mem_ptrs.push_back(mems_.back().get());
    }

    caches_ = std::make_unique<CacheHierarchy>(
        config_.caches, static_cast<std::uint32_t>(sources_.size()),
        std::move(mem_ptrs), &stats_);

    cores_.reserve(sources_.size());
    for (std::uint32_t i = 0; i < sources_.size(); ++i)
        cores_.emplace_back(i, sources_[i].get(), caches_.get(),
                            config_.core);
}

void
System::stepAll()
{
    // The skip runs at the *start* of the step so the run loops
    // always observe the same post-tick clock values (phase
    // boundaries, finish times) with fast-forward on or off.
    if (config_.fastForward) {
        maybeFastForward();
        if (now() >= config_.maxCycles)
            return; // the safety stop fires before the next tick
    }
    const Cycle current = now();
    for (auto &core : cores_)
        core.tick(current);
    if (config_.fastForward) {
        // Event-driven channel stepping: a channel with no work due
        // this cycle jumps its clock instead of ticking, so a busy
        // channel no longer drags its idle siblings through empty
        // ticks.  Completions, drains, and refreshes are all part of
        // the nextWorkAt() bound, so a skipped cycle is provably
        // dead and the per-core stall pattern -- and every statistic
        // -- is bit-identical to lockstep (tests/test_eventqueue).
        for (auto &mem : mems_)
            mem->advanceTo(current + 1);
    } else {
        for (auto &mem : mems_)
            mem->tick();
    }
}

void
System::maybeFastForward()
{
    // Based on the previous cycle's post-tick state: if every core is
    // stalled past the current cycle and every controller's next
    // event is later, the cycles in between are provably dead: jump
    // straight to the earliest event.  Wake-ups are conservative
    // (never later than the true next event), so simulated behaviour
    // -- and therefore every reported statistic -- is unchanged.
    const Cycle current = now();
    Cycle wake = kNeverCycle;
    for (const auto &core : cores_) {
        const Cycle at = core.nextEventAt();
        if (at <= current)
            return;
        wake = std::min(wake, at);
    }
    for (const auto &mem : mems_) {
        const Cycle at = mem->nextWorkAt();
        if (at <= current)
            return;
        wake = std::min(wake, at);
    }
    // Never jump past the safety stop: the run loops compare now()
    // against maxCycles every iteration.
    wake = std::min(wake, config_.maxCycles);
    if (wake <= current)
        return;
    for (auto &mem : mems_)
        mem->skipTo(wake);
    ffSkipped_ += wake - current;
}

RunResult
System::run()
{
    if (ran_)
        fatal("System::run may only be called once");
    ran_ = true;

    const std::size_t n = cores_.size();

    // Phase 1: warm-up.
    auto all_warm = [&] {
        return std::all_of(cores_.begin(), cores_.end(),
                           [&](const TraceCore &c) {
                               return c.instrsRetired() >=
                                      config_.warmupInstrs;
                           });
    };
    while (!all_warm() && now() < config_.maxCycles)
        stepAll();

    // Phase 2: measurement.
    const Cycle measure_start = now();
    const Cycle ff_skipped_at_measure_start = ffSkipped_;
    std::vector<std::uint64_t> start_instrs(n);
    for (std::size_t i = 0; i < n; ++i)
        start_instrs[i] = cores_[i].instrsRetired();

    const std::size_t nch = mems_.size();
    std::vector<EnergyCounts> start_counts(nch);
    for (std::size_t c = 0; c < nch; ++c) {
        const DramDevice &dev = mems_[c]->dram();
        start_counts[c].acts = dev.issueCount(CmdType::ACT);
        start_counts[c].reads = dev.issueCount(CmdType::RD);
        start_counts[c].writes = dev.issueCount(CmdType::WR);
        start_counts[c].refreshes = dev.issueCount(CmdType::REFab);
        start_counts[c].mitigatedRows =
            mems_[c]->prac().mitigatedRows();
    }
    const std::uint64_t start_row_misses = stats_.get("mem.row_misses");
    std::vector<SchedCounters> start_sched(nch);
    for (std::size_t c = 0; c < nch; ++c)
        start_sched[c] = mems_[c]->schedCounters();

    std::vector<Cycle> finish_at(n, 0);
    std::size_t finished = 0;
    while (finished < n && now() < config_.maxCycles) {
        stepAll();
        for (std::size_t i = 0; i < n; ++i) {
            if (finish_at[i] != 0)
                continue;
            if (cores_[i].instrsRetired() - start_instrs[i] >=
                config_.measureInstrs) {
                finish_at[i] = now();
                ++finished;
            }
        }
    }
    if (finished < n)
        warn("System::run hit maxCycles before all cores finished");

    const Cycle end = now();

    RunResult result;
    result.cores.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        CoreResult &cr = result.cores[i];
        cr.workload = cores_[i].workloadName();
        const Cycle done = finish_at[i] ? finish_at[i] : end;
        cr.instrs = std::min(cores_[i].instrsRetired() - start_instrs[i],
                             config_.measureInstrs);
        cr.cycles = done > measure_start ? done - measure_start : 1;
        cr.ipc = static_cast<double>(cr.instrs) /
                 static_cast<double>(cr.cycles);
    }
    result.measureCycles = end - measure_start;

    result.channels.resize(nch);
    for (std::size_t c = 0; c < nch; ++c) {
        const MemoryController &mem = *mems_[c];
        const DramDevice &dev = mem.dram();
        ChannelResult &ch = result.channels[c];

        EnergyCounts delta;
        delta.acts = dev.issueCount(CmdType::ACT) - start_counts[c].acts;
        delta.reads = dev.issueCount(CmdType::RD) - start_counts[c].reads;
        delta.writes =
            dev.issueCount(CmdType::WR) - start_counts[c].writes;
        delta.refreshes =
            dev.issueCount(CmdType::REFab) - start_counts[c].refreshes;
        delta.mitigatedRows =
            mem.prac().mitigatedRows() - start_counts[c].mitigatedRows;
        delta.elapsed = result.measureCycles;
        ch.energyCounts = delta;
        ch.energy = computeEnergy(delta);

        ch.aboRfms = mem.rfmCount(RfmReason::Abo);
        ch.acbRfms = mem.rfmCount(RfmReason::Acb);
        ch.tbRfms = mem.rfmCount(RfmReason::TimingBased);
        ch.tbRfmsSkipped =
            mem.tbScheduler() ? mem.tbScheduler()->skipped() : 0;
        ch.grapheneRfms = mem.rfmCount(RfmReason::Graphene);
        ch.pbRfms = mem.rfmCount(RfmReason::PerBank);
        ch.mitigationEvents = mem.mitigationEvents();
        ch.alerts = mem.prac().alerts();
        ch.maxCounterSeen = mem.prac().counters().maxEverSeen();

        const SchedCounters &sc = mem.schedCounters();
        ch.sched.ticksFired = sc.ticksFired - start_sched[c].ticksFired;
        ch.sched.cyclesJumped =
            sc.cyclesJumped - start_sched[c].cyclesJumped;
        ch.sched.nextWorkCacheHits =
            sc.nextWorkCacheHits - start_sched[c].nextWorkCacheHits;
        ch.sched.nextWorkRebuilds =
            sc.nextWorkRebuilds - start_sched[c].nextWorkRebuilds;
        ch.sched.nextWorkHintRebuilds =
            sc.nextWorkHintRebuilds -
            start_sched[c].nextWorkHintRebuilds;
        ch.sched.banksEvaluated =
            sc.banksEvaluated - start_sched[c].banksEvaluated;
        result.sched.ticksFired += ch.sched.ticksFired;
        result.sched.cyclesJumped += ch.sched.cyclesJumped;
        result.sched.nextWorkCacheHits += ch.sched.nextWorkCacheHits;
        result.sched.nextWorkRebuilds += ch.sched.nextWorkRebuilds;
        result.sched.nextWorkHintRebuilds +=
            ch.sched.nextWorkHintRebuilds;
        result.sched.banksEvaluated += ch.sched.banksEvaluated;
        // Ride the StatSet too, so stat dumps explain the scheduler
        // without a RunResult in hand.
        stats_.counter("sched.ticks_fired") += ch.sched.ticksFired;
        stats_.counter("sched.cycles_jumped") +=
            ch.sched.cyclesJumped;
        stats_.counter("sched.nextwork_cache_hits") +=
            ch.sched.nextWorkCacheHits;
        stats_.counter("sched.nextwork_rebuilds") +=
            ch.sched.nextWorkRebuilds;
        stats_.counter("sched.nextwork_hint_rebuilds") +=
            ch.sched.nextWorkHintRebuilds;
        stats_.counter("sched.banks_evaluated") +=
            ch.sched.banksEvaluated;

        result.energyCounts += ch.energyCounts;
        result.energy += ch.energy;
        result.aboRfms += ch.aboRfms;
        result.acbRfms += ch.acbRfms;
        result.tbRfms += ch.tbRfms;
        result.tbRfmsSkipped += ch.tbRfmsSkipped;
        result.grapheneRfms += ch.grapheneRfms;
        result.pbRfms += ch.pbRfms;
        result.mitigationEvents += ch.mitigationEvents;
        result.alerts += ch.alerts;
        result.maxCounterSeen =
            std::max(result.maxCounterSeen, ch.maxCounterSeen);
    }
    result.rowMisses = stats_.get("mem.row_misses") - start_row_misses;
    result.ffCyclesSkipped = ffSkipped_ - ff_skipped_at_measure_start;
    if (stats_.hasHistogram("mem.queue_occupancy"))
        result.queueOccupancy =
            stats_.getHistogram("mem.queue_occupancy");
    return result;
}

} // namespace pracleak
