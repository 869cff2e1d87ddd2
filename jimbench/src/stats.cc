#include "stats.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace jimbench {

void Samples::Merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Sum() const {
  double sum = 0;
  for (float v : values_) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = q * static_cast<double>(values_.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  // The interpolated quantile sits at rank q*(n-1); every sample with a
  // strictly larger rank lies beyond it.
  // (The epsilon keeps an exact rank such as 0.99 * 900 from flooring to
  // the rank below it.)
  const double rank = q * static_cast<double>(n - 1) + 1e-9;
  return n - 1 - static_cast<size_t>(std::floor(rank));
}

double HighestSupportedQuantile(size_t n, size_t min_beyond) {
  for (double q : {0.99, 0.95, 0.90, 0.75}) {
    if (SamplesBeyond(n, q) >= min_beyond) return q;
  }
  return 0.50;
}

double TailQuantile(size_t n) {
  return std::min(kTailQuantile, HighestSupportedQuantile(n));
}

double TailValue(const Samples& samples) {
  return samples.Quantile(TailQuantile(samples.count()));
}

std::string QuantileLabel(double q) {
  return jim::util::StrFormat("p%d", static_cast<int>(std::lround(q * 100)));
}

int64_t CoveredLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;  // everything before cursor is already accounted for
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    cursor = end;
  }
  return covered;
}

}  // namespace jimbench
