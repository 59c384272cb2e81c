/**
 * @file
 * perfbench: the simulator benchmark.
 *
 *   perfbench --workload fullsim_suite|replay_bakeoff|aes_leak
 *             --seed N --seconds S --trace 0|1
 *             [--size full|tiny] [--pins FILE] [--write-pins FILE]
 *
 * Set-up runs several times (median reported as setup_s); the timed
 * phase then repeats rounds -- every unit of the workload once --
 * until S seconds have passed, and reports medians over rounds.
 * Every unit's modeled outputs are fingerprinted and checked against
 * the first round (determinism), against the pinned fingerprints
 * when the seed is the pinned one, and against the workload's
 * invariants.  With --trace 1, traced rounds alternate with untraced
 * ones and a layer pass follows; the per-layer metrics come from
 * spans recorded around the library calls.
 *
 * stdout: one provenance line, then the result line
 * {"correct", "attempted", "failed", "metrics"}.  Exit code 0 only
 * when every check passed.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "sim/json.h"
#include "sim/provenance.h"

using namespace perfbench;
using pracleak::sim::JsonValue;

namespace {

constexpr std::uint64_t kPinnedSeed = 1;

struct Options
{
    std::string workload;
    std::uint64_t seed = kPinnedSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string size = "full";
    std::string pins;
    std::string writePins;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload fullsim_suite|replay_bakeoff|"
                 "aes_leak --seed N --seconds S --trace 0|1 [--size "
                 "full|tiny] [--pins FILE] [--write-pins FILE]\n",
                 error.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                options.workload = value;
            else if (flag == "--seed")
                options.seed = std::stoull(value);
            else if (flag == "--seconds")
                options.seconds = std::stod(value);
            else if (flag == "--trace")
                options.trace = std::stoi(value) != 0;
            else if (flag == "--size")
                options.size = value;
            else if (flag == "--pins")
                options.pins = value;
            else if (flag == "--write-pins")
                options.writePins = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (options.workload.empty())
        usage("--workload is required");
    return options;
}

std::unique_ptr<Workload>
makeWorkload(const Options &options, const Sizes &sizes)
{
    if (options.workload == "fullsim_suite")
        return makeFullsimSuite(options.seed, sizes);
    if (options.workload == "replay_bakeoff")
        return makeReplayBakeoff(options.seed, sizes);
    if (options.workload == "aes_leak")
        return makeAesLeak(options.seed, sizes);
    usage("unknown workload " + options.workload);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

/** Pinned fingerprints of @p size/@p workload (empty when none). */
std::map<std::string, std::string>
loadPins(const Options &options)
{
    std::map<std::string, std::string> pins;
    if (options.pins.empty() || !options.writePins.empty() ||
        options.seed != kPinnedSeed)
        return pins;
    std::string error;
    const JsonValue root = pracleak::sim::parseJson(readFile(options.pins),
                                                    &error);
    if (!error.empty())
        throw std::runtime_error(options.pins + ": " + error);
    const JsonValue *size = root.get(options.size);
    const JsonValue *units = size ? size->get(options.workload) : nullptr;
    if (!units)
        throw std::runtime_error(options.pins + " pins nothing for " +
                                 options.size + "/" + options.workload);
    for (const auto &[unit, fingerprint] : units->members())
        pins[unit] = fingerprint.asString();
    return pins;
}

/** Merge this run's fingerprints into the pin file at @p path. */
void
writePins(const Options &options,
          const std::map<std::string, std::string> &fingerprints)
{
    if (options.seed != kPinnedSeed)
        throw std::runtime_error("pins are for seed " +
                                 std::to_string(kPinnedSeed));
    JsonValue root = JsonValue::object();
    if (std::ifstream(options.writePins))
        root = pracleak::sim::parseJson(readFile(options.writePins));
    root.set("seed", kPinnedSeed);
    JsonValue size = root.get(options.size) ? *root.get(options.size)
                                            : JsonValue::object();
    JsonValue units = JsonValue::object();
    for (const auto &[unit, fingerprint] : fingerprints)
        units.set(unit, fingerprint);
    size.set(options.workload, std::move(units));
    root.set(options.size, std::move(size));
    writeFile(options.writePins, root.dump(2) + "\n");
}

bool
optimisedBuild()
{
#if defined(NDEBUG) && defined(__OPTIMIZE__) &&                         \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
    return true;
#else
    return false;
#endif
}

JsonValue
metricJson(double value, const std::string &unit)
{
    JsonValue metric = JsonValue::object();
    metric.set("value", value);
    metric.set("unit", unit);
    return metric;
}

int
run(const Options &options)
{
    if (!optimisedBuild())
        throw std::runtime_error("perfbench must be an optimised "
                                 "non-sanitizer build (got " +
                                 std::string(PERFBENCH_BUILD_TYPE) + ")");
    const Sizes sizes = Sizes::byName(options.size);
    std::unique_ptr<Workload> workload = makeWorkload(options, sizes);
    const std::map<std::string, std::string> pins = loadPins(options);

    SpanLog spans;
    SpanLog *traced = options.trace ? &spans : nullptr;

    // Cheap set-ups repeat for a while: one 6 ms sample is mostly noise.
    std::vector<double> setups;
    const double setup_start = wallNow();
    while (setups.size() < static_cast<std::size_t>(sizes.setupRepeats) ||
           wallNow() - setup_start < sizes.setupSeconds) {
        const double start = wallNow();
        workload->setup(traced);
        setups.push_back(wallNow() - start);
    }

    // --- timed phase -------------------------------------------------
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, std::string> first;
    std::vector<std::string> failures;
    auto check = [&](const RoundResult &round) {
        for (const UnitResult &unit : round.units) {
            ++attempted;
            std::string why = unit.failure;
            const auto pinned = pins.find(unit.name);
            const auto seen = first.find(unit.name);
            if (why.empty() && !pins.empty() &&
                (pinned == pins.end() || pinned->second != unit.fingerprint))
                why = "fingerprint " + unit.fingerprint +
                      " differs from the pinned one";
            if (why.empty() && seen != first.end() &&
                seen->second != unit.fingerprint)
                why = "fingerprint differs from the first round's";
            if (seen == first.end())
                first[unit.name] = unit.fingerprint;
            if (!why.empty()) {
                ++failed;
                failures.push_back(unit.name + ": " + why);
            }
        }
    };

    noteThreads();
    const double process_cpu0 = cpuNow();
    const double thread_cpu0 = threadCpuNow();
    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<double> traced_walls;
    // Rounds repeat until the next one would overrun the budget.
    RoundResult last;
    const double start = wallNow();
    double longest = 0.0;
    do {
        const double cpu0 = cpuNow();
        const double wall0 = wallNow();
        last = workload->runRound(nullptr);
        walls.push_back(wallNow() - wall0);
        cpus.push_back(cpuNow() - cpu0);
        check(last);
        if (traced) {
            const double traced0 = wallNow();
            const RoundResult round = workload->runRound(traced);
            traced_walls.push_back(wallNow() - traced0);
            check(round);
        }
        longest = std::max(longest, wallNow() - wall0);
    } while (wallNow() - start + longest <= options.seconds);
    const int threads = noteThreads();
    // The thread count is sampled between library calls only; a thread
    // started and joined inside one call shows as CPU time that the
    // process spent but this thread did not.
    const double process_cpu = cpuNow() - process_cpu0;
    const double other_cpu = process_cpu - (threadCpuNow() - thread_cpu0);
    const double rss = peakRssMb();
    if (threads > 1)
        throw std::runtime_error("observed " + std::to_string(threads) +
                                 " OS threads during the timed phase; "
                                 "the benchmark must run on one");
    if (other_cpu > std::max(0.02, 0.01 * process_cpu))
        throw std::runtime_error(
            "threads other than the main one used " +
            std::to_string(other_cpu) +
            " CPU seconds during the timed phase; the benchmark must run "
            "on one");

    const double wall = median(walls);
    JsonValue metrics = JsonValue::object();
    if (!traced) {
        const std::map<std::string, double> values = {
            {"wall_s", wall},
            {"cpu_s", median(cpus)},
            {"setup_s", median(setups)},
            {"peak_rss_mb", rss}};
        for (const MetricDef &def : endToEndMetrics())
            metrics.set(def.name, metricJson(values.at(def.name), def.unit));
    } else {
        LayerValues layers;
        std::vector<std::string> layer_failures;
        workload->layerPass(spans, layers, layer_failures);
        if (layers["dram.timing_violations"] != 0.0)
            layer_failures.push_back("the traced pass observed DRAM timing "
                                     "violations");
        // The layer pass is one more checked unit.
        ++attempted;
        failed += layer_failures.empty() ? 0 : 1;
        for (const std::string &failure : layer_failures)
            failures.push_back("layer pass: " + failure);
        layers["bench.trace_overhead_pct"] =
            (median(traced_walls) / wall - 1.0) * 100.0;
        layers["sim_mcycles_per_s"] = last.simCycles / 1e6 / wall;
        layers["attacks_per_s"] = last.attacks / wall;
        layers["fail_rate"] =
            static_cast<double>(failed) / static_cast<double>(attempted);
        for (const MetricDef &def : perLayerMetrics())
            metrics.set(def.name, metricJson(layers[def.name], def.unit));

        std::fprintf(stderr, "%-36s %12s %12s %8s\n", "span", "total_s",
                     "self_s", "calls");
        for (const auto &[name, cost] : spans.costs())
            std::fprintf(stderr, "%-36s %12.6f %12.6f %8llu\n", name.c_str(),
                         cost.total, cost.self,
                         static_cast<unsigned long long>(cost.calls));
    }

    if (!options.writePins.empty())
        writePins(options, first);

    for (const std::string &failure : failures)
        std::fprintf(stderr, "perfbench: FAIL %s\n", failure.c_str());

    JsonValue totals = JsonValue::object();
    totals.set("sim_cycles", last.simCycles);
    totals.set("instrs", last.instrs);
    totals.set("requests", last.requests);
    totals.set("attacks", last.attacks);
    JsonValue units = JsonValue::object();
    for (const auto &[unit, fingerprint] : first)
        units.set(unit, fingerprint);
    JsonValue provenance = JsonValue::object();
    provenance.set("git_rev", pracleak::sim::gitRevision());
    provenance.set("build_type", PERFBENCH_BUILD_TYPE);
    provenance.set("nproc", std::thread::hardware_concurrency());
    provenance.set("workload", options.workload);
    provenance.set("seed", options.seed);
    provenance.set("size", options.size);
    provenance.set("trace", options.trace);
    JsonValue round_walls = JsonValue::array();
    for (const double seconds : walls)
        round_walls.push(seconds);
    provenance.set("round_wall_s", std::move(round_walls));
    provenance.set("threads_observed", threads);
    provenance.set("other_threads_cpu_s", other_cpu);
    provenance.set("simulated_per_round", std::move(totals));
    provenance.set("model", last.model);
    provenance.set("fingerprints", std::move(units));
    JsonValue line = JsonValue::object();
    line.set("provenance", std::move(provenance));
    std::cout << line.dumpRoundTrip() << "\n";

    const bool correct = failed == 0;
    JsonValue result = JsonValue::object();
    result.set("correct", correct);
    result.set("attempted", attempted);
    result.set("failed", failed);
    result.set("metrics", std::move(metrics));
    std::cout << result.dumpRoundTrip() << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseArgs(argc, argv);
    try {
        return run(options);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }
}
