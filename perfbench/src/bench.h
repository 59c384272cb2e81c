/**
 * @file
 * Shared pieces of the benchmark program: host clocks and counters,
 * the in-memory span log of the traced pass, the per-layer metric
 * table, and the interface every workload implements.
 *
 * The benchmark drives the pracleak library only through its public
 * functions, on one thread; everything here is the benchmark's own
 * instrumentation around those calls.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/json.h"

namespace perfbench {

// --- host measurements ----------------------------------------------

/** Monotonic wall clock in seconds. */
double wallNow();

/** Process CPU time (user + sys, all threads) in seconds. */
double cpuNow();

/**
 * CPU time of the calling thread in seconds.  cpuNow() also counts
 * threads that have already ended, so process CPU clearly above this
 * thread's shows that another thread ran, however briefly it lived.
 */
double threadCpuNow();

/** Process peak resident set size in MiB. */
double peakRssMb();

/** Record the current OS thread count; returns the maximum seen. */
int noteThreads();

/** Median of @p values (0 for an empty list). */
double median(std::vector<double> values);

/** Stable seed for a named input derived from the benchmark seed. */
std::uint64_t deriveSeed(std::uint64_t seed, const std::string &name);

/** FNV-1a hex digest of a canonical "key=value;" text. */
std::string fingerprintOf(const std::string &canonical);

// --- spans -------------------------------------------------------------

/** One timed call into the library, nested by call order. */
struct Span
{
    std::string name;   //!< the public call (e.g. "System::run")
    std::string label;  //!< the unit it ran for
    double start = 0.0;
    double end = 0.0;
    int parent = -1;    //!< index of the enclosing span, -1 = root

    double seconds() const { return end - start; }
};

/** Spans of one traced pass, kept in memory until the program ends. */
class SpanLog
{
  public:
    int open(const std::string &name, const std::string &label);
    void close(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations of the spans called @p name (and @p label). */
    std::vector<double> durations(const std::string &name,
                                  const std::string &label = "") const;

    /** Per name: {total seconds, self seconds, calls}. */
    struct Cost
    {
        double total = 0.0;
        double self = 0.0;
        std::uint64_t calls = 0;
    };
    std::map<std::string, Cost> costs() const;

  private:
    std::vector<Span> spans_;
    int current_ = -1;
};

/**
 * RAII span.  With a null log it does nothing at all -- not even a
 * clock read -- so the untraced rounds pay one pointer test per call.
 */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const std::string &name,
              const std::string &label = "")
        : log_(log), id_(log ? log->open(name, label) : -1)
    {
    }
    ~SpanScope()
    {
        if (log_)
            log_->close(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log_;
    int id_;
};

/** Run @p body inside a span; returns the span's seconds. */
template <class Body>
double
timed(SpanLog &spans, const std::string &name, const std::string &label,
      Body &&body)
{
    const int id = spans.open(name, label);
    body();
    spans.close(id);
    return spans.spans()[id].seconds();
}

// --- metrics -----------------------------------------------------------

/** Name and unit of one reported metric. */
struct MetricDef
{
    std::string name;
    std::string unit;
};

/** End-to-end metrics (the untraced run). */
const std::vector<MetricDef> &endToEndMetrics();

/** Per-layer metrics (the traced run). */
const std::vector<MetricDef> &perLayerMetrics();

/** The 7 registered defenses besides "none". */
const std::vector<std::string> &defenses();

/** A defense key as a metric-name component ('+' is not allowed). */
std::string metricKey(const std::string &defense);

/**
 * Per-layer values by metric name.  A metric a workload never sets
 * stays 0: that workload does not call the layer (see README.md).
 */
using LayerValues = std::map<std::string, double>;

// --- workloads -----------------------------------------------------------

/** Input sizes; "full" is what the benchmark measures, "tiny" tests. */
struct Sizes
{
    std::uint64_t fullsimWarmup = 20'000;
    std::uint64_t fullsimMeasure = 100'000;
    std::uint64_t bakeoffWarmup = 50'000;
    std::uint64_t bakeoffMeasure = 250'000;
    int aesKeys = 6;
    int aesRepeats = 5;
    int aesEncryptions = 200;
    int setupRepeats = 5;         //!< set-up runs at least this often
    double setupSeconds = 0.5;    //!< ... and for at least this long

    static Sizes byName(const std::string &name);
};

/** Outcome of one unit of work in one round. */
struct UnitResult
{
    std::string name;
    std::string fingerprint;  //!< digest of the modeled outputs
    std::string failure;      //!< empty = every check passed
};

/** Outcome of one round (every unit of the workload once). */
struct RoundResult
{
    std::vector<UnitResult> units;

    // Simulated totals (provenance: a change in run length shows).
    double simCycles = 0.0;        //!< DRAM cycles, summed over channels
    std::uint64_t instrs = 0;
    std::uint64_t requests = 0;
    std::uint64_t attacks = 0;

    /** Model output shown next to the timing (never gated on). */
    pracleak::sim::JsonValue model = pracleak::sim::JsonValue::object();
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Set-up before the timed phase; may be called repeatedly. */
    virtual void setup(SpanLog *spans) = 0;

    /** Run every unit once; @p spans null = untraced. */
    virtual RoundResult runRound(SpanLog *spans) = 0;

    /**
     * Traced-only layer measurements after the rounds.  @p spans
     * already holds the traced set-up and rounds, and receives the
     * layer calls made here; failures of layer invariants (timing
     * violations, replay mismatches) go to @p failures.
     */
    virtual void layerPass(SpanLog &spans, LayerValues &out,
                           std::vector<std::string> &failures) = 0;
};

std::unique_ptr<Workload> makeFullsimSuite(std::uint64_t seed,
                                           const Sizes &sizes);
std::unique_ptr<Workload> makeReplayBakeoff(std::uint64_t seed,
                                            const Sizes &sizes);
std::unique_ptr<Workload> makeAesLeak(std::uint64_t seed,
                                      const Sizes &sizes);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
