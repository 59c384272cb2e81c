#include "system_layers.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "dram/dram.h"
#include "dram/timing_checker.h"
#include "prac/prac_engine.h"
#include "sim/trace_support.h"
#include "telemetry/timeseries.h"
#include "trace/trace.h"

namespace perfbench {

using namespace pracleak;

SuiteEntry
seededEntry(const std::string &name, std::uint64_t seed)
{
    SuiteEntry entry = sim::findSuiteEntry(name);
    entry.params.seed = deriveSeed(seed, name);
    for (WorkloadParams &params : entry.perCore)
        params.seed = deriveSeed(seed, params.name);
    return entry;
}

namespace {

/** Appends "key=value;" items to a canonical text. */
struct Canon
{
    std::string text;

    template <class T>
    Canon &
    add(const char *key, T value)
    {
        text += key;
        text += '=';
        text += std::to_string(value);
        text += ';';
        return *this;
    }
};

void
addChannelStats(Canon &canon, const trace::TraceChannelStats &s)
{
    canon.add("requests", s.requests)
        .add("acts", s.acts)
        .add("reads", s.reads)
        .add("writes", s.writes)
        .add("refreshes", s.refreshes)
        .add("alerts", s.alerts)
        .add("events", s.mitigationEvents)
        .add("mitigated", s.mitigatedRows)
        .add("max_counter", s.maxCounterSeen);
    for (const std::uint64_t rfms : s.rfms)
        canon.add("rfms", rfms);
}

/** Forwards a generator and counts what the core consumed. */
class CountingSource : public WorkloadSource
{
  public:
    CountingSource(std::unique_ptr<WorkloadSource> inner,
                   std::uint64_t *ops, std::uint64_t *instrs)
        : inner_(std::move(inner)), ops_(ops), instrs_(instrs)
    {
    }

    TraceOp
    next() override
    {
        const TraceOp op = inner_->next();
        ++*ops_;
        *instrs_ += op.nonMemInstrs + (op.isMem ? 1 : 0);
        return op;
    }

    const std::string &name() const override { return inner_->name(); }

  private:
    std::unique_ptr<WorkloadSource> inner_;
    std::uint64_t *ops_;
    std::uint64_t *instrs_;
};

using CommandStream = std::vector<std::pair<Command, Cycle>>;

/** One PRAC-visible DRAM event of a captured command stream. */
struct PracEvent
{
    CmdType type;
    std::uint32_t flatBank;
    std::uint32_t rowOrRank;
    Cycle at;
};

std::vector<PracEvent>
toPracEvents(const CommandStream &stream, const AddressMapper &mapper)
{
    std::vector<PracEvent> events;
    for (const auto &[cmd, at] : stream) {
        const DramAddress addr{cmd.rank, cmd.bankGroup, cmd.bank, cmd.row,
                               0};
        switch (cmd.type) {
          case CmdType::ACT:
            events.push_back({cmd.type, mapper.flatBank(addr), cmd.row, at});
            break;
          case CmdType::REFab:
            events.push_back({cmd.type, 0, cmd.rank, at});
            break;
          case CmdType::RFMab:
            events.push_back({cmd.type, 0, 0, at});
            break;
          case CmdType::RFMpb:
            events.push_back({cmd.type, mapper.flatBank(addr), 0, at});
            break;
          default:
            break;
        }
    }
    return events;
}

} // namespace

std::string
runFingerprint(const RunResult &run)
{
    Canon canon;
    for (const CoreResult &core : run.cores)
        canon.add("instrs", core.instrs).add("cycles", core.cycles);
    canon.add("measure_cycles", run.measureCycles)
        .add("acts", run.energyCounts.acts)
        .add("reads", run.energyCounts.reads)
        .add("writes", run.energyCounts.writes)
        .add("refreshes", run.energyCounts.refreshes)
        .add("mitigated", run.energyCounts.mitigatedRows)
        .add("elapsed", run.energyCounts.elapsed)
        .add("abo_rfms", run.aboRfms)
        .add("acb_rfms", run.acbRfms)
        .add("tb_rfms", run.tbRfms)
        .add("tb_rfms_skipped", run.tbRfmsSkipped)
        .add("graphene_rfms", run.grapheneRfms)
        .add("pb_rfms", run.pbRfms)
        .add("events", run.mitigationEvents)
        .add("alerts", run.alerts)
        .add("row_misses", run.rowMisses)
        .add("max_counter", run.maxCounterSeen);
    for (const ChannelResult &ch : run.channels)
        canon.add("ch_alerts", ch.alerts)
            .add("ch_max_counter", ch.maxCounterSeen)
            .add("ch_acts", ch.energyCounts.acts);
    return fingerprintOf(canon.text);
}

std::string
replayFingerprint(const trace::ReplayResult &replay)
{
    Canon canon;
    canon.add("end", replay.endCycle)
        .add("replayed", replay.replayedRequests)
        .add("drained", replay.fullyDrained ? 1 : 0);
    for (const trace::TraceChannelStats &stats : replay.channels)
        addChannelStats(canon, stats);
    return fingerprintOf(canon.text);
}

std::uint64_t
totalRfms(const RunResult &run)
{
    return run.aboRfms + run.acbRfms + run.tbRfms + run.grapheneRfms +
           run.pbRfms;
}

void
SystemLayers::measure(const SuiteEntry &entry,
                      const sim::DesignConfig &design,
                      const sim::RunBudget &budget, const std::string &label,
                      SpanLog &spans,
                      std::vector<std::string> &failures)
{
    const SystemConfig config = sim::makeSystemConfig(design, budget);
    const std::string &defense = design.mitigation;

    // Recording, its byte image, and its parse.
    sim::RecordedRun recorded;
    recordSeconds += timed(spans, "recordSuiteRun", label, [&] {
        recorded = sim::recordSuiteRun(entry, design, budget, kCores);
    });
    std::string image;
    encodeSeconds += timed(spans, "serializeTrace", label,
                           [&] { image = trace::serializeTrace(recorded.trace); });
    trace::TraceData parsed;
    decodeSeconds += timed(spans, "TraceReader::parse", label,
                           [&] { parsed = trace::TraceReader::parse(image); });
    traceBytes += image.size();
    for (const trace::ChannelTrace &channel : parsed.channels) {
        traceRecords += channel.records.size();
        requests += channel.stats.requests;
    }

    // The plain run (what the timed rounds pay for this unit) and the
    // same-defense replay, timed back to back in pairs: the host's
    // speed drifts over seconds, so the run-minus-replay difference
    // is taken within each pair and the median over pairs kept.
    RunResult plain;
    trace::ReplayResult same;
    std::vector<double> run_samples;
    std::vector<double> replay_samples;
    std::vector<double> differences;
    for (int i = 0; i < kPairs; ++i) {
        std::optional<System> system;
        ctorSeconds.push_back(timed(spans, "System::System", label, [&] {
            system.emplace(config, instantiate(entry, kCores));
        }));
        run_samples.push_back(timed(spans, "System::run", label,
                                    [&] { plain = system->run(); }));
        replay_samples.push_back(timed(spans, "replayTrace", label, [&] {
            same = trace::replayTrace(parsed);
        }));
        differences.push_back(run_samples.back() - replay_samples.back());
    }
    const double run_seconds = median(run_samples);
    const double replay_seconds = median(replay_samples);
    runSeconds += run_seconds;
    if (!same.matchesRecorded(parsed))
        failures.push_back(label + ": replay under the recorded defense "
                                   "does not reproduce the recording");
    replaySeconds[defense] += replay_seconds;
    replayRequests[defense] += same.replayedRequests;
    if (defense == "none") {
        telemetry::SeriesCapture::arm();
        seriesArmedSeconds += timed(spans, "replayTrace.series_armed", label,
                                    [&] { trace::replayTrace(parsed); });
        telemetry::SeriesCapture::disarm();
        seriesDisarmedSeconds += replay_seconds;
    }

    // An observed rerun: counts what each core consumed and captures
    // every channel's command stream.  Observation must not change
    // the modeled outputs.
    std::vector<std::uint64_t> core_ops(kCores, 0);
    std::uint64_t consumed = 0;
    std::vector<CommandStream> streams(config.channels);
    std::vector<std::unique_ptr<WorkloadSource>> counted;
    std::vector<std::unique_ptr<WorkloadSource>> sources =
        instantiate(entry, kCores);
    for (std::uint32_t c = 0; c < kCores; ++c)
        counted.push_back(std::make_unique<CountingSource>(
            std::move(sources[c]), &core_ops[c], &consumed));
    System observed(config, std::move(counted));
    for (std::uint32_t ch = 0; ch < config.channels; ++ch)
        observed.channel(ch).dram().setTraceSink(
            [stream = &streams[ch]](const Command &cmd, Cycle at) {
                stream->emplace_back(cmd, at);
            });
    const RunResult run = observed.run();
    if (runFingerprint(run) != runFingerprint(plain))
        failures.push_back(label + ": observing the run changed its "
                                   "modeled outputs");

    consumedInstrs += consumed;
    for (const CoreResult &core : run.cores)
        instrs += core.instrs;
    const StatSet &stats = observed.stats();
    llcHits += stats.get("cache.llc_hits");
    llcMisses += stats.get("cache.llc_misses");
    mshrMerges += stats.get("cache.mshr_merges");
    rowHits += stats.get("mem.row_hits");
    rowAccesses += stats.get("mem.row_hits") + stats.get("mem.row_misses") +
                   stats.get("mem.row_conflicts");
    ticksFired += run.sched.ticksFired;
    cyclesJumped += run.sched.cyclesJumped;
    nextWorkHits += run.sched.nextWorkCacheHits;
    nextWorkLookups += run.sched.nextWorkCacheHits +
                       run.sched.nextWorkRebuilds +
                       run.sched.nextWorkHintRebuilds;
    const Histogram &queue = run.queueOccupancy;
    queueBucketWidth = queue.bucketWidth();
    if (queueBuckets.size() < queue.buckets().size())
        queueBuckets.resize(queue.buckets().size(), 0);
    for (std::size_t i = 0; i < queue.buckets().size(); ++i)
        queueBuckets[i] += queue.buckets()[i];
    alerts += run.alerts;
    maxCounter = std::max(maxCounter, run.maxCounterSeen);
    rfms[defense] += totalRfms(run);
    events[defense] += run.mitigationEvents;
    tbRfms += run.tbRfms;
    tbRfmsSkipped += run.tbRfmsSkipped;

    // Workload generation alone: fresh generators, as many ops as the
    // cores consumed.
    std::uint64_t unit_ops = 0;
    Addr sink = 0;
    std::vector<std::unique_ptr<WorkloadSource>> fresh =
        instantiate(entry, kCores);
    const double op_seconds = timed(spans, "WorkloadSource::next", label, [&] {
        for (std::uint32_t c = 0; c < kCores; ++c)
            for (std::uint64_t i = 0; i < core_ops[c]; ++i)
                sink ^= fresh[c]->next().addr;
    });
    for (const std::uint64_t n : core_ops)
        unit_ops += n;
    (void)sink;
    opSeconds += op_seconds;
    ops += unit_ops;

    // cpu self time: the run minus its memory side (the same-defense
    // replay redoes that work bit-identically) minus generation.  A
    // self time at or below zero would mean the subtraction removed
    // more than the run contains, so it fails the layer pass.
    const double self = median(differences) - op_seconds;
    selfSeconds.push_back(self);
    std::fprintf(stderr,
                 "%-36s run %.6f s, replay %.6f s, generation %.6f s, "
                 "self %.6f s\n",
                 label.c_str(), run_seconds, replay_seconds, op_seconds, self);
    if (self <= 0.0)
        failures.push_back(label + ": cpu self time is not positive (" +
                           std::to_string(self) + " s)");

    // DRAM, timing checks and PRAC over the captured streams.
    for (std::uint32_t ch = 0; ch < config.channels; ++ch) {
        const DramDevice &device = observed.channel(ch).dram();
        for (std::size_t t = 0; t < cmds.size(); ++t)
            cmds[t] += device.issueCount(static_cast<CmdType>(t));
        const CommandStream &stream = streams[ch];
        redriveCmds += stream.size();

        DramDevice fresh_device(device.spec());
        std::uint64_t refused = 0;
        redriveSeconds += timed(spans, "DramDevice::issue", label, [&] {
            for (const auto &[cmd, at] : stream) {
                const Cycle earliest = fresh_device.earliestIssue(cmd);
                if (earliest == kNeverCycle || earliest > at) {
                    ++refused;
                    break;
                }
                fresh_device.issue(cmd, at);
            }
        });
        if (refused)
            failures.push_back(label + ": a fresh DramDevice refused the "
                                       "captured command stream");

        TimingChecker checker(device.spec());
        timed(spans, "TimingChecker::observe", label, [&] {
            for (const auto &[cmd, at] : stream)
                checker.observe(cmd, at);
        });
        violations += checker.violations().size();

        const std::vector<PracEvent> prac_events =
            toPracEvents(stream, observed.channel(ch).mapper());
        PracEngine engine(device.spec(), observed.channel(ch).config().prac);
        pracSeconds += timed(spans, "PracEngine", label, [&] {
            for (const PracEvent &event : prac_events) {
                engine.maybePeriodicReset(event.at);
                switch (event.type) {
                  case CmdType::ACT:
                    engine.onActivate(event.flatBank, event.rowOrRank,
                                      event.at);
                    break;
                  case CmdType::REFab:
                    engine.onRefresh(event.rowOrRank, event.at);
                    break;
                  case CmdType::RFMab:
                    engine.onRfm(event.at);
                    break;
                  default:
                    engine.onRfmPb(event.flatBank, event.at);
                    break;
                }
            }
        });
        pracEvents += prac_events.size();
    }
}

void
SystemLayers::emit(LayerValues &out) const
{
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    auto percentile = [&](double p) {
        std::uint64_t count = 0;
        for (const std::uint64_t n : queueBuckets)
            count += n;
        const double target = static_cast<double>(count) * p / 100.0;
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < queueBuckets.size(); ++i) {
            seen += queueBuckets[i];
            if (count && static_cast<double>(seen) >= target)
                return (static_cast<double>(i) + 0.5) * queueBucketWidth;
        }
        return 0.0;
    };
    double self = 0.0;
    for (const double s : selfSeconds)
        self += s;

    out["workload.ns_per_op"] = ratio(opSeconds * 1e9, ops);
    out["cpu.system_ctor_ms"] = median(ctorSeconds) * 1e3;
    out["cpu.self_s"] = self;
    out["cpu.self_s_min_unit"] =
        selfSeconds.empty()
            ? 0.0
            : *std::min_element(selfSeconds.begin(), selfSeconds.end());
    out["cpu.ns_per_instr"] = ratio(self * 1e9, consumedInstrs);
    out["cpu.instrs"] = instrs;
    out["cpu.llc_hit_ratio"] = ratio(llcHits, llcHits + llcMisses);
    out["cpu.mshr_merges"] = mshrMerges;

    const auto none_seconds = replaySeconds.find("none");
    const auto none_requests = replayRequests.find("none");
    if (none_seconds != replaySeconds.end())
        out["mem.ns_per_request"] = ratio(none_seconds->second * 1e9,
                                          none_requests->second);
    out["mem.requests"] = requests;
    out["mem.ticks_fired"] = ticksFired;
    out["mem.cycles_jumped"] = cyclesJumped;
    out["mem.tick_ratio"] = ratio(ticksFired, ticksFired + cyclesJumped);
    out["mem.nextwork_hit_ratio"] = ratio(nextWorkHits, nextWorkLookups);
    out["mem.queue_p50"] = percentile(50.0);
    out["mem.queue_p95"] = percentile(95.0);
    out["mem.row_hit_ratio"] = ratio(rowHits, rowAccesses);

    static const char *const kCmdNames[] = {"act", "pre", "rd", "wr",
                                            "ref", "rfm", "rfmpb"};
    for (std::size_t t = 0; t < cmds.size(); ++t)
        out[std::string("dram.cmds.") + kCmdNames[t]] = cmds[t];
    out["dram.ns_per_cmd"] = ratio(redriveSeconds * 1e9, redriveCmds);
    out["dram.timing_violations"] = violations;

    out["prac.ns_per_event"] = ratio(pracSeconds * 1e9, pracEvents);
    out["prac.alerts"] = alerts;
    out["prac.max_counter"] = maxCounter;

    out["trace.bytes"] = traceBytes;
    out["trace.records"] = traceRecords;
    out["trace.encode_mb_per_s"] = ratio(traceBytes / 1e6, encodeSeconds);
    out["trace.decode_mb_per_s"] = ratio(traceBytes / 1e6, decodeSeconds);
    out["trace.record_overhead_pct"] =
        runSeconds > 0.0 ? (recordSeconds / runSeconds - 1.0) * 100.0 : 0.0;
    if (seriesDisarmedSeconds > 0.0)
        out["telemetry.series_armed_overhead_pct"] =
            (seriesArmedSeconds / seriesDisarmedSeconds - 1.0) * 100.0;
}

} // namespace perfbench
