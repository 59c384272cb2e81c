/**
 * @file
 * The three workloads.  Each round runs every unit once through the
 * library's public entry points; set-up, rounds and the traced layer
 * pass are separate so the timed phase contains exactly the work a
 * user pays for on every run.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "attack/side_channel.h"
#include "bench.h"
#include "crypto/aes128t.h"
#include "sim/trace_support.h"
#include "system_layers.h"
#include "telemetry/timeseries.h"
#include "trace/replay.h"
#include "trace/trace.h"

namespace perfbench {

using namespace pracleak;

namespace {

// --- fullsim_suite ---------------------------------------------------------

/** Table-4 entries spanning High, Medium and Low RBMPKI. */
const std::vector<std::string> kSuiteEntries = {
    "h_rand_heavy", "h_chase", "cloud_mix", "m_blend", "l_resident"};

/** Each entry runs undefended and under TPRAC at NBO 1024. */
const std::vector<std::string> kSuiteDefenses = {"none", "tprac"};

sim::DesignConfig
suiteDesign(const std::string &defense, std::uint32_t channels = 1)
{
    sim::DesignConfig design;
    design.label = defense;
    design.mitigation = defense;
    design.nbo = 1024;
    design.channels = channels;
    return design;
}

class FullsimSuite : public Workload
{
  public:
    FullsimSuite(std::uint64_t seed, const Sizes &sizes)
        : budget_{sizes.fullsimWarmup, sizes.fullsimMeasure}
    {
        for (const std::string &name : kSuiteEntries)
            entries_.push_back(seededEntry(name, seed));
    }

    /** Stack construction: every unit's System, built once. */
    void
    setup(SpanLog *spans) override
    {
        for (const SuiteEntry &entry : entries_)
            for (const std::string &defense : kSuiteDefenses) {
                SpanScope span(spans, "System::System",
                               entry.params.name + "/" + defense);
                System system(
                    sim::makeSystemConfig(suiteDesign(defense), budget_),
                    instantiate(entry, kCores));
            }
    }

    RoundResult
    runRound(SpanLog *spans) override
    {
        RoundResult round;
        double perf_sum = 0.0;
        for (const SuiteEntry &entry : entries_) {
            std::vector<RunResult> runs;
            for (const std::string &defense : kSuiteDefenses) {
                const std::string label = entry.params.name + "/" + defense;
                std::optional<System> system;
                {
                    SpanScope span(spans, "System::System", label);
                    system.emplace(
                        sim::makeSystemConfig(suiteDesign(defense), budget_),
                        instantiate(entry, kCores));
                }
                RunResult run;
                {
                    SpanScope span(spans, "System::run", label);
                    run = system->run();
                }
                noteThreads();
                for (std::size_t ch = 0; ch < system->channelCount(); ++ch)
                    round.simCycles += system->channel(ch).now();
                for (const CoreResult &core : run.cores)
                    round.instrs += core.instrs;
                round.requests +=
                    run.energyCounts.reads + run.energyCounts.writes;
                round.units.push_back({label, runFingerprint(run), ""});
                runs.push_back(std::move(run));
            }
            perf_sum += normalizedPerf(runs[1], runs[0]);
        }
        const double perf = perf_sum / entries_.size();
        round.model.set("tprac_normalized_perf", perf);
        round.model.set("tprac_slowdown_pct", (1.0 - perf) * 100.0);
        round.model.set("paper_tprac_slowdown_pct_at_nrh_1024", 3.4);
        round.model.set(
            "note",
            "unvalidated model output, not gated: the repository holds no "
            "hardware reference, and the paper's 3.4% comes from its own "
            "simulator running full traces");
        return round;
    }

    void
    layerPass(SpanLog &spans, LayerValues &out,
              std::vector<std::string> &failures) override
    {
        SystemLayers layers;
        for (const SuiteEntry &entry : entries_)
            for (const std::string &defense : kSuiteDefenses) {
                const std::string label = entry.params.name + "/" + defense;
                layers.measure(entry, suiteDesign(defense), budget_,
                               "layer:" + label, spans, failures);
            }
        layers.emit(out);
        out["mitigation.tprac.overhead_s"] =
            layers.replaySeconds["tprac"] - layers.replaySeconds["none"];
        out["mitigation.tprac.rfms"] = layers.rfms["tprac"];
        out["mitigation.tprac.events"] = layers.events["tprac"];
        out["mitigation.tprac.tb_rfms"] = layers.tbRfms;
        out["mitigation.tprac.tb_rfms_skipped"] = layers.tbRfmsSkipped;
    }

  private:
    sim::RunBudget budget_;
    std::vector<SuiteEntry> entries_;
};

// --- replay_bakeoff --------------------------------------------------------

constexpr std::uint32_t kBakeoffChannels = 4;

class ReplayBakeoff : public Workload
{
  public:
    ReplayBakeoff(std::uint64_t seed, const Sizes &sizes)
        : entry_(seededEntry("cloud_mix", seed)),
          budget_{sizes.bakeoffWarmup, sizes.bakeoffMeasure}
    {
    }

    /** Record one 4-channel cloud_mix run under "none" and serialize. */
    void
    setup(SpanLog *spans) override
    {
        sim::RecordedRun recorded;
        {
            SpanScope span(spans, "recordSuiteRun", "cloud_mix/none");
            recorded = sim::recordSuiteRun(
                entry_, suiteDesign("none", kBakeoffChannels), budget_,
                kCores);
        }
        SpanScope span(spans, "serializeTrace", "cloud_mix/none");
        image_ = trace::serializeTrace(recorded.trace);
    }

    RoundResult
    runRound(SpanLog *spans) override
    {
        RoundResult round;
        trace::TraceData data;
        {
            SpanScope span(spans, "TraceReader::parse", "cloud_mix");
            data = trace::TraceReader::parse(image_);
        }
        std::vector<std::string> order = {"none"};
        order.insert(order.end(), defenses().begin(), defenses().end());
        for (const std::string &defense : order) {
            trace::ReplayOptions options;
            options.mitigation = defense;
            trace::ReplayResult replay;
            {
                SpanScope span(spans, "replayTrace", defense);
                replay = trace::replayTrace(data, options);
            }
            noteThreads();
            std::string failure;
            if (defense == data.header.mitigation &&
                !replay.matchesRecorded(data))
                failure = "replay under the recorded defense does not "
                          "reproduce the recording";
            round.simCycles += static_cast<double>(replay.endCycle) *
                               replay.channels.size();
            round.requests += replay.replayedRequests;
            round.units.push_back(
                {"replay/" + defense, replayFingerprint(replay), failure});
            last_[defense] = replay.total();
        }
        return round;
    }

    void
    layerPass(SpanLog &spans, LayerValues &out,
              std::vector<std::string> &failures) override
    {
        // The source recording through the shared System-layer pass
        // (its none replay is bit-identical to this workload's).
        SystemLayers layers;
        layers.measure(entry_, suiteDesign("none", kBakeoffChannels),
                       budget_, "layer:cloud_mix/none", spans, failures);
        layers.emit(out);

        // Timed-phase layers, from the traced rounds' spans.
        const double none = median(spans.durations("replayTrace", "none"));
        out["mem.ns_per_request"] =
            none * 1e9 / std::max<std::uint64_t>(last_["none"].requests, 1);
        for (const std::string &defense : defenses()) {
            const std::string key = "mitigation." + metricKey(defense);
            const trace::TraceChannelStats &stats = last_[defense];
            std::uint64_t rfms = 0;
            for (const std::uint64_t n : stats.rfms)
                rfms += n;
            out[key + ".overhead_s"] =
                median(spans.durations("replayTrace", defense)) - none;
            out[key + ".rfms"] = rfms;
            out[key + ".events"] = stats.mitigationEvents;
        }
        out["mitigation.tprac.tb_rfms"] = last_["tprac"].rfms[
            static_cast<std::size_t>(RfmReason::TimingBased)];
        out["mitigation.tprac.tb_rfms_skipped"] = 0; // not in replay stats
        out["trace.decode_mb_per_s"] =
            image_.size() / 1e6 /
            median(spans.durations("TraceReader::parse", "cloud_mix"));

        // Series capture armed vs disarmed on the none replay.
        const trace::TraceData data = trace::TraceReader::parse(image_);
        std::vector<double> armed;
        std::vector<double> disarmed;
        for (int i = 0; i < 3; ++i) {
            disarmed.push_back(timed(spans, "replayTrace", "series_disarmed",
                                     [&] { trace::replayTrace(data); }));
            telemetry::SeriesCapture::arm();
            armed.push_back(timed(spans, "replayTrace", "series_armed",
                                  [&] { trace::replayTrace(data); }));
            telemetry::SeriesCapture::disarm();
        }
        out["telemetry.series_armed_overhead_pct"] =
            (median(armed) / median(disarmed) - 1.0) * 100.0;
    }

  private:
    SuiteEntry entry_;
    sim::RunBudget budget_;
    std::string image_;
    std::map<std::string, trace::TraceChannelStats> last_;
};

// --- aes_leak ----------------------------------------------------------------

const std::vector<std::string> kAttackModes = {"abo-only", "tprac"};

/** Dry runs per set-up that vote on the probe lag. */
constexpr int kCalibrations = 8;

class AesLeak : public Workload
{
  public:
    AesLeak(std::uint64_t seed, const Sizes &sizes)
        : seed_(seed), repeats_(sizes.aesRepeats),
          encryptions_(sizes.aesEncryptions)
    {
        Rng rng(deriveSeed(seed, "aes-keys"));
        for (int k = 0; k < sizes.aesKeys; ++k) {
            Aes128T::Key key{};
            for (std::uint8_t &byte : key)
                byte = static_cast<std::uint8_t>(rng.range(256));
            keys_.push_back(key);
        }
    }

    /**
     * Calibrate the probe lag on a known key: the attacker's dry runs,
     * one per calibration seed, and the most common lag wins.  Several
     * seeds make the set-up cost an average over plaintext streams
     * rather than the cost of one.
     */
    void
    setup(SpanLog *spans) override
    {
        std::map<int, int> votes;
        for (int i = 0; i < kCalibrations; ++i) {
            SideChannelParams params;
            params.encryptions = encryptions_;
            params.seed =
                deriveSeed(seed_, "aes-calibrate-" + std::to_string(i));
            SpanScope span(spans, "calibrateProbeLag", "abo-only");
            ++votes[calibrateProbeLag(params)];
        }
        lag_ = std::max_element(votes.begin(), votes.end(),
                                [](const auto &a, const auto &b) {
                                    return a.second < b.second;
                                })
                   ->first;
    }

    RoundResult
    runRound(SpanLog *spans) override
    {
        RoundResult round;
        std::uint64_t recovered = 0;
        std::uint64_t correlated = 0;
        std::uint64_t alerts = 0;
        std::vector<std::size_t> tprac_units;
        for (const std::string &mode : kAttackModes) {
            const bool defended = mode == "tprac";
            for (std::size_t k = 0; k < keys_.size(); ++k) {
                const SideChannelParams params = attackParams(mode, k);
                SideChannelResult result;
                {
                    SpanScope span(spans, "runAesSideChannelMajority", mode);
                    result = runAesSideChannelMajority(params, repeats_);
                }
                noteThreads();
                ++round.attacks;

                const int nibble = keys_[k][0] >> 4;
                const bool match = result.estimatedTriggerRow == nibble;
                const bool alert = result.trueTriggerRow >= 0;
                std::string failure;
                if (!defended && result.recoveredKeyNibble != nibble)
                    failure = "abo-only did not recover the key nibble";
                if (defended && alert)
                    failure = "tprac raised an alert";
                recovered += !defended && result.recoveredKeyNibble == nibble;
                correlated += defended && match;
                alerts += defended && alert;
                if (defended)
                    tprac_units.push_back(round.units.size());
                round.units.push_back({mode + "/key" + std::to_string(k),
                                       attackFingerprint(result), failure});
            }
        }
        if (correlated >= leakThreshold(keys_.size()))
            for (const std::size_t u : tprac_units)
                if (round.units[u].failure.empty())
                    round.units[u].failure =
                        "tprac trigger rows correlate with the key";
        const double keys = static_cast<double>(keys_.size());
        round.model.set("abo_only_recovered_ratio", recovered / keys);
        round.model.set("tprac_correlated_ratio", correlated / keys);
        round.model.set("tprac_alerts", alerts);
        recovered_ = recovered / keys;
        correlated_ = correlated / keys;
        alerts_ = alerts;
        return round;
    }

    void
    layerPass(SpanLog &spans, LayerValues &out,
              std::vector<std::string> &) override
    {
        out["attack.calibrate_s"] =
            median(spans.durations("calibrateProbeLag"));
        for (const std::string &mode : kAttackModes)
            out["attack." + mode + ".ms_per_attack"] =
                median(spans.durations("runAesSideChannelMajority", mode)) *
                1e3;
        out["attack.abo-only.recovered_ratio"] = recovered_;
        out["attack.tprac.correlated_ratio"] = correlated_;
        out["attack.tprac.alerts"] = alerts_;

        // The victim's cipher alone.
        constexpr int kEncryptions = 20'000;
        const Aes128T aes(keys_.front());
        Aes128T::Block block{};
        const double seconds = timed(spans, "Aes128T::encrypt", "", [&] {
            for (int i = 0; i < kEncryptions; ++i)
                block = aes.encrypt(block);
        });
        out["crypto.ns_per_encryption"] = seconds * 1e9 / kEncryptions;
        (void)block;

        // The attack owns its harness, so its memory-side counts come
        // from the bus series every controller attaches while armed.
        telemetry::SeriesCapture::arm();
        for (const std::string &mode : kAttackModes) {
            SpanScope span(&spans, "runAesSideChannelMajority.series", mode);
            runAesSideChannelMajority(attackParams(mode, 0), repeats_);
        }
        const std::string series = telemetry::SeriesCapture::renderAll(false);
        telemetry::SeriesCapture::disarm();
        addSeriesCounts(series, out);
    }

  private:
    /**
     * Fewest TPRAC trigger-row matches that count as a leak.  Without
     * a leak each key matches by chance with p = 1/16, so the number of
     * matches over n keys is Binomial(n, 1/16); the threshold is the
     * smallest m with P(X >= m) below 1%.  For 6 keys that is 3
     * (P(X >= 2) = 4.9%, P(X >= 3) = 0.43%).
     */
    static std::uint64_t
    leakThreshold(std::size_t n)
    {
        constexpr double p = 1.0 / 16.0;
        std::vector<double> pmf(n + 1);
        for (std::size_t m = 0; m <= n; ++m) {
            double choose = 1.0;
            for (std::size_t i = 0; i < m; ++i)
                choose = choose * static_cast<double>(n - i) /
                         static_cast<double>(i + 1);
            pmf[m] = choose * std::pow(p, m) * std::pow(1.0 - p, n - m);
        }
        double tail = 1.0;
        for (std::size_t m = 0; m <= n; ++m) {
            if (tail < 0.01)
                return m;
            tail -= pmf[m];
        }
        return n + 1;
    }

    SideChannelParams
    attackParams(const std::string &mode, std::size_t k) const
    {
        SideChannelParams params;
        params.key = keys_[k];
        params.encryptions = encryptions_;
        params.seed = deriveSeed(seed_, "aes-attack-" + std::to_string(k));
        params.probeLag = lag_;
        params.mode = mode == "tprac" ? MitigationMode::Tprac
                                      : MitigationMode::AboOnly;
        if (mode == "tprac") {
            // As in fig09_defense_validation: TB-RFMs are single 350 ns
            // RFMabs, so the attacker lowers its spike threshold.
            params.spikeThresholdNs = 400.0;
        }
        return params;
    }

    static std::string
    attackFingerprint(const SideChannelResult &result)
    {
        std::string canon;
        auto add = [&](const char *key, long long value) {
            canon += key;
            canon += '=' + std::to_string(value) + ';';
        };
        for (const std::uint32_t acts : result.victimActsPerRow)
            add("victim_acts", acts);
        add("spike", result.spikeObserved);
        add("spike_index", result.spikeProbeIndex);
        add("estimated_row", result.estimatedTriggerRow);
        add("true_row", result.trueTriggerRow);
        add("attacker_acts", result.attackerActsToTrigger);
        add("nibble", result.recoveredKeyNibble);
        add("victim_end", static_cast<long long>(result.victimPhaseEnd));
        return fingerprintOf(canon);
    }

    static void
    addSeriesCounts(const std::string &series, LayerValues &out)
    {
        static const std::vector<std::pair<std::string, std::string>> kCmds =
            {{"act", "act"}, {"pre", "pre"}, {"rd", "rd"}, {"wr", "wr"},
             {"ref", "ref"}, {"rfm_ab", "rfm"}, {"rfm_pb", "rfmpb"}};
        std::vector<double> p50;
        std::vector<double> p95;
        std::size_t begin = 0;
        while (begin < series.size()) {
            std::size_t end = series.find('\n', begin);
            if (end == std::string::npos)
                end = series.size();
            const sim::JsonValue line =
                sim::parseJson(series.substr(begin, end - begin));
            begin = end + 1;
            const sim::JsonValue *kind = line.get("kind");
            if (!kind)
                continue;
            if (kind->asString() == "window") {
                for (const auto &[field, metric] : kCmds)
                    if (const sim::JsonValue *v = line.get(field))
                        out["dram.cmds." + metric] += v->asDouble();
                if (const sim::JsonValue *v = line.get("abo"))
                    out["prac.alerts"] += v->asDouble();
                if (const sim::JsonValue *v = line.get("q_n"))
                    out["mem.requests"] += v->asDouble();
            } else if (kind->asString() == "summary") {
                if (const sim::JsonValue *q = line.get("queue_occupancy")) {
                    p50.push_back(q->get("p50")->asDouble());
                    p95.push_back(q->get("p95")->asDouble());
                }
            }
        }
        out["mem.queue_p50"] = median(p50);
        out["mem.queue_p95"] =
            p95.empty() ? 0.0 : *std::max_element(p95.begin(), p95.end());
    }

    std::uint64_t seed_;
    int repeats_;
    int encryptions_;
    std::vector<Aes128T::Key> keys_;
    int lag_ = 0;
    double recovered_ = 0.0;
    double correlated_ = 0.0;
    std::uint64_t alerts_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeFullsimSuite(std::uint64_t seed, const Sizes &sizes)
{
    return std::make_unique<FullsimSuite>(seed, sizes);
}

std::unique_ptr<Workload>
makeReplayBakeoff(std::uint64_t seed, const Sizes &sizes)
{
    return std::make_unique<ReplayBakeoff>(seed, sizes);
}

std::unique_ptr<Workload>
makeAesLeak(std::uint64_t seed, const Sizes &sizes)
{
    return std::make_unique<AesLeak>(seed, sizes);
}

} // namespace perfbench
