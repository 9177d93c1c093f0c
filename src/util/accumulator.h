/// \file accumulator.h
/// Exactly-mergeable streaming statistics: Moments (count/mean/M2) and
/// Histogram (fixed bins, nearest-rank quantiles), both O(bins) memory
/// however many observations a campaign or a metrics registry folds in.
///
/// The merge law is the load-bearing design point. Shards accumulate
/// independently and are merged at the end, and the campaign report
/// must be byte-identical for any --jobs count AND any shard split of
/// the same population. Floating-point summation cannot deliver that
/// (addition is neither associative nor commutative at the bit level),
/// so all state is integer: Histogram counts bins, and Moments
/// quantizes observations to a fixed point (kScaleBits fractional bits)
/// accumulated in 128-bit integers. Integer addition is an abelian
/// monoid, so merge(a, b) == merge(b, a) and any shard split of the same
/// observation multiset produces bit-identical state; the double-valued
/// views (mean/variance/quantiles) are derived from that exact state at
/// read time and are equally split-invariant. test_campaign fuzzes
/// exactly these laws.
///
/// Quantization bounds Moments' range: |x| must stay below 2^40 (about
/// 1e12) for the squared sums to fit 128 bits across a
/// billion-observation population; campaign observables (mJ, ms,
/// reschedule counts) sit many orders of magnitude below that.

#ifndef ACTG_UTIL_ACCUMULATOR_H
#define ACTG_UTIL_ACCUMULATOR_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace actg::util {

/// Exact streaming count / mean / M2 accumulator. Internally integer
/// (fixed point), so Merge is bit-exactly associative and commutative.
class Moments {
 public:
  /// Fractional bits of the fixed-point quantization (~1e-6 absolute
  /// resolution).
  static constexpr int kScaleBits = 20;

  /// Folds one observation in. Values are clamped to the representable
  /// range (|x| < 2^40); campaign observables never approach it.
  void Observe(double x);

  /// Folds \p other in. Bit-exactly associative and commutative: any
  /// grouping of the same observation multiset yields identical state.
  void Merge(const Moments& other);

  std::size_t count() const { return count_; }
  /// Mean of the quantized observations; 0 on an empty accumulator.
  double mean() const;
  /// Sum of squared deviations from the mean (the "M2" of Welford's
  /// algorithm), derived from the exact sums; 0 when count < 2.
  double m2() const;
  /// Population variance M2 / count; 0 when count < 2.
  double variance() const;
  /// Sum of the quantized observations.
  double sum() const;

  /// Bit-exact state equality (count and both integer sums).
  bool operator==(const Moments& other) const;

  /// Checkpoint codec access: the exact integer state. Serializing
  /// (count, raw_sum, raw_sum_sq) and rebuilding via FromRaw round-trips
  /// bit-identically — the property the campaign resume path needs.
  __int128 raw_sum() const { return sum_q_; }
  __int128 raw_sum_sq() const { return sum_sq_q_; }
  static Moments FromRaw(std::size_t count, __int128 sum_q,
                         __int128 sum_sq_q);

 private:
  std::size_t count_ = 0;
  __int128 sum_q_ = 0;     ///< sum of quantized observations
  __int128 sum_sq_q_ = 0;  ///< sum of squared quantized observations
};

/// Histogram with underflow/overflow bins and nearest-rank quantiles at
/// bin-center resolution, in one of two layouts:
///  - uniform: \c bins equal-width bins over [lo, hi);
///  - log (Log()): one bin per binary exponent and top
///    kLogMantissaBits mantissa bits of a positive double. A bin spans
///    at most 1/64 of its lower edge, so its center is within 1/128
///    (< 1%) of every value in it. Only the touched span of bins is
///    allocated (1 us - 10 s: 24 octaves, at most 12 KB). Values <= 0
///    and NaN count as underflow (quantile 0), +inf as overflow.
class Histogram {
 public:
  static constexpr int kLogMantissaBits = 6;

  /// Uniform bins over [lo, hi). Requires lo < hi and bins > 0 (throws
  /// InvalidArgument otherwise).
  Histogram(double lo, double hi, std::size_t bins);

  /// An empty histogram in the fixed log layout.
  static Histogram Log();

  void Observe(double x);

  /// Folds \p other in; the layouts must match exactly (throws
  /// InvalidArgument otherwise).
  void Merge(const Histogram& other);

  std::size_t count() const { return count_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  /// Allocated bins: all of them when uniform, the touched span when log.
  std::size_t bins() const { return counts_.size(); }
  std::uint64_t bin_count(std::size_t bin) const { return counts_[bin]; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }

  /// Nearest-rank quantile (q in [0, 1]): the center of the bin holding
  /// the ceil(q * count)-th observation (lo for underflow, hi for
  /// overflow). 0 on an empty histogram.
  double Quantile(double q) const;

  bool operator==(const Histogram& other) const;

  /// Checkpoint codec access: rebuilds a uniform histogram from its
  /// exact counter state (count = underflow + overflow + sum(counts)).
  /// Throws InvalidArgument on a layout the constructor would reject.
  static Histogram FromRaw(double lo, double hi, std::uint64_t underflow,
                           std::uint64_t overflow,
                           std::vector<std::uint64_t> counts);

 private:
  Histogram() = default;
  /// Log layout: grows the allocated span to cover bins [first, last].
  void Cover(std::uint64_t first, std::uint64_t last);

  bool log_ = false;
  double lo_ = 0.0;
  double hi_ = 0.0;
  double width_ = 0.0;  ///< uniform layout only
  /// Absolute bin of counts_[0]: 0 when uniform; when log, always a
  /// touched bin (as is counts_.back()), so equal observation multisets
  /// have equal spans.
  std::uint64_t first_bin_ = 0;
  std::size_t count_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::vector<std::uint64_t> counts_;
};

}  // namespace actg::util

#endif  // ACTG_UTIL_ACCUMULATOR_H
