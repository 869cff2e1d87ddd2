#ifndef JIMBENCH_STATS_H_
#define JIMBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace jimbench {

/// Exact latency samples of one kind (microseconds unless stated). Every
/// percentile the benchmark reports comes from one of these, never from the
/// obs registry's power-of-two histograms. Values are kept as float (4 bytes
/// a sample, 7 significant digits) so the client's own memory stays small
/// next to the daemon's in peak_rss_mb.
class Samples {
 public:
  void Add(double value) {
    values_.push_back(static_cast<float>(value));
    sorted_ = false;
  }
  void Merge(const Samples& other);
  size_t count() const { return values_.size(); }
  double Sum() const;
  double Mean() const;
  /// Linear interpolation between closest ranks (numpy's default) at
  /// quantile `q` in [0, 1]; 0 for an empty set. Sorts in place.
  double Quantile(double q) const;

 private:
  mutable std::vector<float> values_;
  mutable bool sorted_ = true;
};

/// Samples strictly above quantile `q` of `n` samples under the
/// interpolation of Samples::Quantile.
size_t SamplesBeyond(size_t n, double q);

/// The highest of 0.99, 0.95, 0.90, 0.75, 0.50 that leaves at least
/// `min_beyond` samples beyond it, or 0.50 when none does.
double HighestSupportedQuantile(size_t n, size_t min_beyond = 10);

/// The quantile every "*_p99_*" metric reports. On the 4-vCPU KVM guest
/// the benchmark was built on, the host stalls a vCPU for 2-11 ms about once
/// a second. That moved the true p99 of 30-200 us round trips by 0.29-0.47
/// of its median between seeds on interleaved-10k, against 0.08 for p95, so
/// the tail metrics report p95.
inline constexpr double kTailQuantile = 0.95;

/// kTailQuantile, or the highest lower quantile that still leaves ten of
/// `n` samples beyond it.
double TailQuantile(size_t n);
double TailValue(const Samples& samples);

/// "p95", "p90", ... for a quantile from TailQuantile.
std::string QuantileLabel(double q);

/// Total length of the union of [start, end) intervals, clipped to
/// [lo, hi). Self time of a span is its duration minus this over its
/// children.
int64_t CoveredLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi);

}  // namespace jimbench

#endif  // JIMBENCH_STATS_H_
