/**
 * @file
 * Lightweight statistics helpers used by probes and benches: running
 * scalar statistics and fixed-bucket histograms.
 */

#ifndef T3DSIM_SIM_STATS_HH
#define T3DSIM_SIM_STATS_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace t3dsim
{

/** Incremental min / max / mean / variance over a stream of samples. */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples added so far. */
    std::uint64_t count() const { return _count; }

    /** Sum of all samples. */
    double sum() const { return _sum; }

    /** Arithmetic mean; 0 when empty. */
    double mean() const { return _count ? _sum / _count : 0.0; }

    /** Smallest sample; +inf when empty. */
    double min() const { return _min; }

    /** Largest sample; -inf when empty. */
    double max() const { return _max; }

    /** Population variance (Welford); 0 when fewer than 2 samples. */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    /** Forget all samples. */
    void reset() { *this = RunningStat(); }

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
    double _meanAcc = 0.0;
    double _m2 = 0.0;
};

/**
 * Histogram over [lo, hi) with uniform buckets plus underflow and
 * overflow counters.
 */
class Histogram
{
  public:
    /**
     * @param lo Inclusive lower bound of the bucketed range.
     * @param hi Exclusive upper bound of the bucketed range.
     * @param buckets Number of uniform buckets; must be > 0.
     */
    Histogram(double lo, double hi, std::size_t buckets);

    /** Record one sample. */
    void add(double x);

    /** Count in bucket @p i. */
    std::uint64_t bucketCount(std::size_t i) const { return _counts.at(i); }

    /** Inclusive lower edge of bucket @p i. */
    double bucketLo(std::size_t i) const;

    std::uint64_t underflow() const { return _underflow; }
    std::uint64_t overflow() const { return _overflow; }
    std::uint64_t total() const { return _total; }

    /** Render a compact one-line-per-bucket summary. */
    std::string render() const;

  private:
    double _lo;
    double _hi;
    double _width;
    std::vector<std::uint64_t> _counts;
    std::uint64_t _underflow = 0;
    std::uint64_t _overflow = 0;
    std::uint64_t _total = 0;
};

} // namespace t3dsim

#endif // T3DSIM_SIM_STATS_HH
