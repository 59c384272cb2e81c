#include "sim/design.h"

#include <future>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "mitigation/registry.h"

namespace pracleak::sim {

SystemConfig
makeSystemConfig(const DesignConfig &design, const RunBudget &budget)
{
    SystemConfig config;
    config.spec = design.spec.empty() ? DramSpec::ddr5_8000b()
                                      : specByName(design.spec);
    config.spec.prac.nbo = design.nbo;
    config.spec.prac.nmit = design.nmit;
    if (design.ranks != 0)
        config.spec.org.ranks = design.ranks;
    config.channels = design.channels;
    config.channelInterleaveBytes = design.channelInterleaveBytes;
    config.fastForward = design.fastForward;
    config.warmupInstrs = budget.warmup;
    config.measureInstrs = budget.measure;

    if (design.randomRfmPerTrefi >= 0.0)
        config.mem.randomRfmPerTrefi = design.randomRfmPerTrefi;
    config.mem.prac.queue = QueueKind::SingleEntry;
    config.mem.prac.counterResetAtTrefw = design.counterReset;
    config.mem.prac.trefPeriodRefs = design.trefPeriodRefs;

    configureDefense(config.mem, design.mitigation, config.spec,
                     design.trefPeriodRefs != 0);
    if (design.mitigation == "tprac")
        config.mem.tbRfm.perBank = design.perBankRfm;
    return config;
}

RunResult
runOne(const SuiteEntry &entry, const DesignConfig &design,
       const RunBudget &budget, std::uint32_t cores)
{
    System system(makeSystemConfig(design, budget),
                  instantiate(entry, cores));
    return system.run();
}

namespace {

/**
 * Every knob a "none" baseline run can observe.  Kept honest
 * by the kDesignConfigFieldCount tripwire (design.h): when a field
 * is added to DesignConfig, decide here whether the baseline can
 * observe it and extend the key if so -- label, mitigation,
 * perBankRfm, randomRfmPerTrefi, and fastForward are deliberately
 * excluded (the baseline forces "none", and fast-forward is
 * statistics-invariant by the event-scheduler contract).
 */
static_assert(kDesignConfigFieldCount == 13,
              "DesignConfig changed: re-audit BaselineKey before "
              "updating the count");
using BaselineKey =
    std::tuple<std::string, std::string, std::uint32_t, std::uint32_t,
               std::uint32_t, bool, std::uint64_t, std::uint64_t,
               std::uint32_t, std::uint32_t, std::uint32_t,
               std::uint32_t>;

// shared_future per key: the first thread to claim a key computes
// it, concurrent claimants wait instead of re-simulating.
std::mutex g_baselineMutex;
std::map<BaselineKey, std::shared_future<RunResult>> g_baselineCache;

BaselineKey
baselineKey(const SuiteEntry &entry, const DesignConfig &design,
            const RunBudget &budget, std::uint32_t cores)
{
    return BaselineKey{entry.params.name,
                       design.spec,
                       design.nbo,
                       design.nmit,
                       design.trefPeriodRefs,
                       design.counterReset,
                       budget.warmup,
                       budget.measure,
                       cores,
                       design.channels,
                       design.ranks,
                       design.channelInterleaveBytes};
}

} // namespace

PairResult
runNormalizedPair(const SuiteEntry &entry, const DesignConfig &design,
                  const RunBudget &budget, std::uint32_t cores)
{
    DesignConfig baseline = design;
    baseline.label = "baseline";
    baseline.mitigation = "none";
    baseline.perBankRfm = false;

    const BaselineKey key = baselineKey(entry, design, budget, cores);
    std::shared_future<RunResult> future;
    std::promise<RunResult> promise;
    bool owner = false;
    {
        const std::lock_guard<std::mutex> lock(g_baselineMutex);
        const auto it = g_baselineCache.find(key);
        if (it != g_baselineCache.end()) {
            future = it->second;
        } else {
            future = promise.get_future().share();
            g_baselineCache.emplace(key, future);
            owner = true;
        }
    }
    if (owner) {
        try {
            promise.set_value(runOne(entry, baseline, budget, cores));
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }

    PairResult pair;
    pair.design = runOne(entry, design, budget, cores);
    pair.baseline = future.get();
    return pair;
}

void
clearBaselineCache()
{
    const std::lock_guard<std::mutex> lock(g_baselineMutex);
    g_baselineCache.clear();
}

std::vector<EntryPerf>
runSuiteNormalized(const std::vector<SuiteEntry> &entries,
                   const DesignConfig &design, const RunBudget &budget,
                   ThreadPool *pool)
{
    std::vector<std::function<PairResult()>> jobs;
    jobs.reserve(entries.size());
    for (const SuiteEntry &entry : entries)
        jobs.push_back([entry, design, budget] {
            return runNormalizedPair(entry, design, budget);
        });
    ThreadPool &target = pool ? *pool : ThreadPool::shared();
    auto pairs = target.map(std::move(jobs));

    std::vector<EntryPerf> out;
    out.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EntryPerf perf;
        perf.name = entries[i].params.name;
        perf.intensity = entries[i].intensity;
        perf.normalized =
            normalizedPerf(pairs[i].design, pairs[i].baseline);
        perf.result = std::move(pairs[i].design);
        out.push_back(std::move(perf));
    }
    return out;
}

double
meanNormalized(const std::vector<EntryPerf> &perfs)
{
    if (perfs.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &perf : perfs)
        sum += perf.normalized;
    return sum / static_cast<double>(perfs.size());
}

const SuiteEntry &
findSuiteEntry(const std::string &name)
{
    static const std::vector<SuiteEntry> suite = standardSuite();
    for (const SuiteEntry &entry : suite)
        if (entry.params.name == name)
            return entry;
    std::string known;
    for (const SuiteEntry &entry : suite)
        known += (known.empty() ? "" : ", ") + entry.params.name;
    throw std::invalid_argument("unknown suite entry '" + name +
                                "' (have: " + known + ")");
}

std::vector<std::string>
suiteEntryNames()
{
    std::vector<std::string> names;
    for (const SuiteEntry &entry : standardSuite())
        names.push_back(entry.params.name);
    return names;
}

std::vector<std::string>
suiteEntryNames(MemIntensity intensity)
{
    std::vector<std::string> names;
    for (const SuiteEntry &entry : standardSuite())
        if (entry.intensity == intensity)
            names.push_back(entry.params.name);
    return names;
}

std::vector<std::string>
memoryIntensiveEntryNames()
{
    std::vector<std::string> names = suiteEntryNames(MemIntensity::High);
    for (auto &name : suiteEntryNames(MemIntensity::Medium))
        names.push_back(std::move(name));
    return names;
}

} // namespace pracleak::sim
