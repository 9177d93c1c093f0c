#include "util/accumulator.h"

#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "util/error.h"

namespace actg::util {

namespace {

/// Quantizes x to kScaleBits fractional bits, clamped to +/- 2^40 so
/// the squared sum can never overflow 128 bits over any realistic
/// population (2^40 quantized -> 2^80 squared -> 2^110 after 2^30
/// observations).
std::int64_t Quantize(double x) {
  constexpr double kScale =
      static_cast<double>(std::int64_t{1} << Moments::kScaleBits);
  constexpr double kLimit = 1099511627776.0;  // 2^40
  if (x > kLimit) x = kLimit;
  if (x < -kLimit) x = -kLimit;
  return std::llround(x * kScale);
}

constexpr double kInvScale =
    1.0 / static_cast<double>(std::int64_t{1} << Moments::kScaleBits);

/// A positive double's bits shifted right by this keep its exponent and
/// top kLogMantissaBits mantissa bits: the log layout's absolute bin,
/// monotone in the value.
constexpr int kLogShift = 52 - Histogram::kLogMantissaBits;

double LogBinEdge(std::uint64_t bin) {
  return std::bit_cast<double>(bin << kLogShift);
}

}  // namespace

void Moments::Observe(double x) {
  const std::int64_t q = Quantize(x);
  ++count_;
  sum_q_ += q;
  sum_sq_q_ += static_cast<__int128>(q) * q;
}

void Moments::Merge(const Moments& other) {
  count_ += other.count_;
  sum_q_ += other.sum_q_;
  sum_sq_q_ += other.sum_sq_q_;
}

double Moments::sum() const {
  return static_cast<double>(sum_q_) * kInvScale;
}

double Moments::mean() const {
  if (count_ == 0) return 0.0;
  return sum() / static_cast<double>(count_);
}

double Moments::m2() const {
  if (count_ < 2) return 0.0;
  // M2 = sum(x^2) - sum(x)^2 / n, on the exact integer sums. The
  // subtraction happens in doubles, but both operands are pure
  // functions of the exact state, so the result is split-invariant.
  const double sq = static_cast<double>(sum_sq_q_) * kInvScale * kInvScale;
  const double s = sum();
  const double m2 = sq - s * s / static_cast<double>(count_);
  return m2 > 0.0 ? m2 : 0.0;
}

double Moments::variance() const {
  if (count_ < 2) return 0.0;
  return m2() / static_cast<double>(count_);
}

bool Moments::operator==(const Moments& other) const {
  return count_ == other.count_ && sum_q_ == other.sum_q_ &&
         sum_sq_q_ == other.sum_sq_q_;
}

Moments Moments::FromRaw(std::size_t count, __int128 sum_q,
                         __int128 sum_sq_q) {
  Moments m;
  m.count_ = count;
  m.sum_q_ = sum_q;
  m.sum_sq_q_ = sum_sq_q;
  return m;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)) {
  ACTG_CHECK(lo < hi, "Histogram: lo must be < hi");
  ACTG_CHECK(bins > 0, "Histogram: bins must be > 0");
  counts_.assign(bins, 0);
}

Histogram Histogram::Log() {
  Histogram h;
  h.log_ = true;
  h.hi_ = std::numeric_limits<double>::infinity();
  return h;
}

void Histogram::Cover(std::uint64_t first, std::uint64_t last) {
  if (counts_.empty()) first_bin_ = first;
  if (first < first_bin_) {
    counts_.insert(counts_.begin(), first_bin_ - first, 0);
    first_bin_ = first;
  }
  if (last - first_bin_ >= counts_.size()) {
    counts_.resize(last - first_bin_ + 1, 0);
  }
}

void Histogram::Observe(double x) {
  ++count_;
  // The log layout also sends zero and NaN to underflow.
  if (x < lo_ || (log_ && !(x > lo_))) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  if (log_) {
    const std::uint64_t bin = std::bit_cast<std::uint64_t>(x) >> kLogShift;
    Cover(bin, bin);
    ++counts_[bin - first_bin_];
    return;
  }
  auto bin = static_cast<std::size_t>((x - lo_) / width_);
  // Guard the hi-edge rounding case (x just below hi_ can land on
  // bins() after the division).
  if (bin >= counts_.size()) bin = counts_.size() - 1;
  ++counts_[bin];
}

void Histogram::Merge(const Histogram& other) {
  ACTG_CHECK(log_ == other.log_ && lo_ == other.lo_ && hi_ == other.hi_ &&
                 (log_ || counts_.size() == other.counts_.size()),
             "Histogram::Merge: bin layouts differ");
  count_ += other.count_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  if (other.counts_.empty()) return;
  if (log_) Cover(other.first_bin_, other.first_bin_ + other.bins() - 1);
  const std::uint64_t offset = other.first_bin_ - first_bin_;
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    counts_[offset + i] += other.counts_[i];
  }
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest rank: the k-th smallest observation with
  // k = max(1, ceil(q * count)).
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = underflow_;
  if (rank <= seen) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (rank <= seen) {
      if (!log_) return lo_ + (static_cast<double>(i) + 0.5) * width_;
      const double lower = LogBinEdge(first_bin_ + i);
      return lower + 0.5 * (LogBinEdge(first_bin_ + i + 1) - lower);
    }
  }
  return hi_;
}

Histogram Histogram::FromRaw(double lo, double hi, std::uint64_t underflow,
                             std::uint64_t overflow,
                             std::vector<std::uint64_t> counts) {
  Histogram h(lo, hi, counts.size());
  h.underflow_ = underflow;
  h.overflow_ = overflow;
  h.count_ = std::accumulate(counts.begin(), counts.end(),
                             std::size_t{underflow + overflow});
  h.counts_ = std::move(counts);
  return h;
}

bool Histogram::operator==(const Histogram& other) const {
  return log_ == other.log_ && lo_ == other.lo_ && hi_ == other.hi_ &&
         first_bin_ == other.first_bin_ && count_ == other.count_ &&
         underflow_ == other.underflow_ && overflow_ == other.overflow_ &&
         counts_ == other.counts_;
}

}  // namespace actg::util
