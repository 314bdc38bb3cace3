#include "common/stats.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace cowbird {

double PercentileSampler::Quantile(double q) const {
  COWBIRD_CHECK(q >= 0.0 && q <= 1.0);
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double rank = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

void LogHistogram::Add(std::uint64_t value) {
  const int bucket = value == 0 ? 0 : 64 - std::countl_zero(value);
  static_assert(kBuckets == 65, "bucket index for bit-63 values is 64");
  ++buckets_[bucket];
  ++count_;
}

std::uint64_t LogHistogram::QuantileUpperBound(double q) const {
  if (count_ == 0) return 0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(count_));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > target) {
      if (i == 0) return 0;       // bucket 0 holds only the value 0
      if (i >= 64) return ~0ull;  // 2^64 - 1 without shifting by 64
      return (1ull << i) - 1;
    }
  }
  return ~0ull;
}

std::string LogHistogram::ToString() const {
  std::string out;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    out += "[<2^" + std::to_string(i) + "]=" + std::to_string(buckets_[i]) +
           " ";
  }
  return out;
}

}  // namespace cowbird
