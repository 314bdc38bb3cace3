// Statistics collectors used by tests and the benchmark harness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace cowbird {

// Exact percentile sampler: stores every sample. Our benchmark runs collect
// at most a few million latency samples, so exactness is affordable and we
// avoid the bin-boundary artifacts of streaming sketches in the p99 plots.
class PercentileSampler {
 public:
  void Add(double x) {
    samples_.push_back(x);
    sorted_ = false;  // a cached sort no longer covers this sample
  }
  void Reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const { return samples_.size(); }
  // q in [0, 1]; q=0.5 is the median. Linear interpolation between ranks.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double P99() const { return Quantile(0.99); }
  void Clear() {
    samples_.clear();
    sorted_ = false;
  }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

// Log-scaled latency histogram (power-of-two buckets) for cheap always-on
// distribution tracking inside the simulator.
class LogHistogram {
 public:
  // Bucket 0 counts only the value 0; bucket i>=1 counts [2^(i-1), 2^i).
  // Bucket 64 exists so values with bit 63 set (up to UINT64_MAX) land in a
  // real bucket instead of one past the array.
  static constexpr int kBuckets = 65;

  void Add(std::uint64_t value);
  std::uint64_t count() const { return count_; }
  std::uint64_t bucket(int i) const { return buckets_[i]; }
  // Upper bound of the bucket that contains quantile q.
  std::uint64_t QuantileUpperBound(double q) const;
  std::string ToString() const;

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
};

}  // namespace cowbird
