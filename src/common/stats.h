/**
 * @file
 * Lightweight named-statistics registry.
 *
 * Modules register scalar counters and histograms against a StatSet and
 * bump them during simulation; harnesses read them back by name to
 * build the paper's tables.  Intentionally simple: no formulas, no
 * hierarchy beyond dotted names.
 */

#ifndef PRACLEAK_COMMON_STATS_H
#define PRACLEAK_COMMON_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pracleak {

/** A streaming histogram tracking count/sum/min/max plus fixed buckets. */
class Histogram
{
  public:
    /**
     * @param bucket_width Width of each bucket in sample units.
     * @param num_buckets  Number of buckets; samples beyond the last
     *                     bucket are accumulated in an overflow bin.
     */
    explicit Histogram(double bucket_width = 100.0,
                       std::size_t num_buckets = 64);

    /** Record one sample. */
    void sample(double value);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /** Approximate p-th percentile (p in [0,100]) from the buckets. */
    double percentile(double p) const;

    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    double bucketWidth() const { return bucketWidth_; }
    std::uint64_t overflow() const { return overflow_; }

    /**
     * JSON rendering for sweep rows and journal records:
     * {bucket_width, count, sum, min, max, p50, p95, p99, overflow,
     * buckets}.  The percentiles are the bucket-approximated
     * percentile() values, precomputed so result consumers need not
     * re-derive them from the bucket array.  Trailing empty buckets
     * are trimmed so rows stay compact; the result round-trips
     * through the strict sim::parseJson.
     */
    std::string toJson() const;

  private:
    double bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A named collection of counters and histograms.
 *
 * Lookups create-on-first-use, so modules can stay decoupled from the
 * harness that eventually prints the values.
 */
class StatSet
{
  public:
    /** Mutable reference to (auto-created) scalar counter @p name. */
    std::uint64_t &counter(const std::string &name);

    /** Read a counter; returns 0 when absent. */
    std::uint64_t get(const std::string &name) const;

    /** Mutable reference to (auto-created) histogram @p name. */
    Histogram &histogram(const std::string &name);

    /**
     * Like histogram(), but a histogram created by this call uses
     * the given shape instead of the defaults.  An existing
     * histogram keeps its shape: first registration wins.
     */
    Histogram &histogram(const std::string &name, double bucket_width,
                         std::size_t num_buckets);

    /** Whether a histogram named @p name exists. */
    bool hasHistogram(const std::string &name) const;

    /** Read-only histogram access; histogram must exist. */
    const Histogram &getHistogram(const std::string &name) const;

    /** All counters, sorted by name (std::map iteration order). */
    const std::map<std::string, std::uint64_t> &counters() const
    {
        return counters_;
    }

    /** Drop all counters and histograms. */
    void reset();

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, Histogram> histograms_;
};

/**
 * One StatSet counter bumped from a hot path.  A name-keyed
 * StatSet::counter() lookup costs more than most events it counts,
 * and a name past the SSO limit allocates on every call; the handle
 * resolves its counter once, on the first increment, so a stats dump
 * never gains an entry the run did not bump.  Without a StatSet it is
 * a no-op.  @p name must outlive the handle (a string literal), and
 * the StatSet must not be reset while the handle is live.
 */
class CounterHandle
{
  public:
    CounterHandle() = default;
    CounterHandle(StatSet *stats, const char *name)
        : stats_(stats), name_(name)
    {
    }

    CounterHandle &
    operator++()
    {
        if (stats_) {
            if (!slot_)
                slot_ = &stats_->counter(name_);
            ++*slot_;
        }
        return *this;
    }

  private:
    StatSet *stats_ = nullptr;
    const char *name_ = nullptr;
    std::uint64_t *slot_ = nullptr;
};

} // namespace pracleak

#endif // PRACLEAK_COMMON_STATS_H
