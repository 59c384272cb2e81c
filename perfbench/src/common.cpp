#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <sys/resource.h>

#include "bench.h"
#include "common/rng.h"
#include "sim/provenance.h"

namespace perfbench {

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

double
cpuSeconds(int who)
{
    rusage usage{};
    getrusage(who, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

} // namespace

double
cpuNow()
{
    return cpuSeconds(RUSAGE_SELF);
}

double
threadCpuNow()
{
    return cpuSeconds(RUSAGE_THREAD);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

int
noteThreads()
{
    static int most = 0;
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0) {
            most = std::max(most, std::stoi(line.substr(8)));
            break;
        }
    }
    return most;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

std::uint64_t
deriveSeed(std::uint64_t seed, const std::string &name)
{
    pracleak::Rng rng(seed ^ pracleak::sim::fnv1a64(name));
    return rng.next();
}

std::string
fingerprintOf(const std::string &canonical)
{
    return pracleak::sim::hashHex(pracleak::sim::fnv1a64(canonical));
}

// --- spans -------------------------------------------------------------

int
SpanLog::open(const std::string &name, const std::string &label)
{
    spans_.push_back(Span{name, label, wallNow(), 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
}

void
SpanLog::close(int id)
{
    spans_[id].end = wallNow();
    current_ = spans_[id].parent;
}

std::vector<double>
SpanLog::durations(const std::string &name, const std::string &label) const
{
    std::vector<double> out;
    for (const Span &span : spans_)
        if (span.name == name && (label.empty() || span.label == label))
            out.push_back(span.seconds());
    return out;
}

std::map<std::string, SpanLog::Cost>
SpanLog::costs() const
{
    // Spans nest strictly (one thread, RAII scopes), so a span's self
    // time is its duration minus the durations of its direct children.
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &span : spans_)
        if (span.parent >= 0)
            child[span.parent] += span.seconds();
    std::map<std::string, Cost> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        Cost &cost = out[spans_[i].name];
        cost.total += spans_[i].seconds();
        cost.self += spans_[i].seconds() - child[i];
        ++cost.calls;
    }
    return out;
}

// --- metric tables -------------------------------------------------------

const std::vector<std::string> &
defenses()
{
    static const std::vector<std::string> names = {
        "abo-only", "abo+acb-rfm", "tprac", "obfuscation",
        "para", "graphene", "pb-rfm"};
    return names;
}

std::string
metricKey(const std::string &defense)
{
    std::string key = defense;
    std::replace(key.begin(), key.end(), '+', '_');
    return key;
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> table = {
        {"wall_s", "s"},
        {"cpu_s", "s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return table;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> table = [] {
        std::vector<MetricDef> t = {
            {"workload.ns_per_op", "ns"},
            {"cpu.system_ctor_ms", "ms"},
            {"cpu.self_s", "s"},
            {"cpu.self_s_min_unit", "s"},
            {"cpu.ns_per_instr", "ns"},
            {"cpu.instrs", "count"},
            {"cpu.llc_hit_ratio", "ratio"},
            {"cpu.mshr_merges", "count"},
            {"mem.ns_per_request", "ns"},
            {"mem.requests", "count"},
            {"mem.ticks_fired", "count"},
            {"mem.cycles_jumped", "count"},
            {"mem.tick_ratio", "ratio"},
            {"mem.nextwork_hit_ratio", "ratio"},
            {"mem.queue_p50", "entries"},
            {"mem.queue_p95", "entries"},
            {"mem.row_hit_ratio", "ratio"},
            {"dram.cmds.act", "count"},
            {"dram.cmds.pre", "count"},
            {"dram.cmds.rd", "count"},
            {"dram.cmds.wr", "count"},
            {"dram.cmds.ref", "count"},
            {"dram.cmds.rfm", "count"},
            {"dram.cmds.rfmpb", "count"},
            {"dram.ns_per_cmd", "ns"},
            {"dram.timing_violations", "count"},
            {"prac.ns_per_event", "ns"},
            {"prac.alerts", "count"},
            {"prac.max_counter", "count"},
        };
        for (const std::string &defense : defenses()) {
            const std::string key = "mitigation." + metricKey(defense);
            t.push_back({key + ".overhead_s", "s"});
            t.push_back({key + ".rfms", "count"});
            t.push_back({key + ".events", "count"});
        }
        const std::vector<MetricDef> tail = {
            {"mitigation.tprac.tb_rfms", "count"},
            {"mitigation.tprac.tb_rfms_skipped", "count"},
            {"trace.bytes", "bytes"},
            {"trace.records", "count"},
            {"trace.encode_mb_per_s", "MB/s"},
            {"trace.decode_mb_per_s", "MB/s"},
            {"trace.record_overhead_pct", "%"},
            {"attack.calibrate_s", "s"},
            {"attack.abo-only.ms_per_attack", "ms"},
            {"attack.tprac.ms_per_attack", "ms"},
            {"attack.abo-only.recovered_ratio", "ratio"},
            {"attack.tprac.correlated_ratio", "ratio"},
            {"attack.tprac.alerts", "count"},
            {"crypto.ns_per_encryption", "ns"},
            {"telemetry.series_armed_overhead_pct", "%"},
            {"bench.trace_overhead_pct", "%"},
            {"sim_mcycles_per_s", "Mcycles/s"},
            {"attacks_per_s", "1/s"},
            {"fail_rate", "ratio"},
        };
        t.insert(t.end(), tail.begin(), tail.end());
        return t;
    }();
    return table;
}

Sizes
Sizes::byName(const std::string &name)
{
    Sizes sizes;
    if (name == "full")
        return sizes;
    if (name != "tiny")
        throw std::invalid_argument("unknown size '" + name +
                                    "' (full, tiny)");
    sizes.fullsimWarmup = 2'000;
    sizes.fullsimMeasure = 10'000;
    sizes.bakeoffWarmup = 2'000;
    sizes.bakeoffMeasure = 10'000;
    sizes.aesKeys = 2;
    sizes.aesRepeats = 3;
    sizes.setupRepeats = 1;
    sizes.setupSeconds = 0.0;
    return sizes;
}

} // namespace perfbench
