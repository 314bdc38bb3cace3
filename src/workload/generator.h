// Key generators for the evaluation workloads.
//
// The Zipfian generator is the standard YCSB construction (Gray et al.) so
// that "YCSB, Zipfian theta = 0.99" means the same distribution the paper
// benchmarked. Zeta constants are computed once per (n, theta).
#pragma once

#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/rng.h"

namespace cowbird::workload {

class ZipfianGenerator {
 public:
  ZipfianGenerator(std::uint64_t n, double theta = 0.99)
      : n_(n), theta_(theta) {
    COWBIRD_CHECK(n > 0);
    COWBIRD_CHECK(theta > 0 && theta < 1);
    zetan_ = Zeta(n, theta);
    zeta2_ = Zeta(2, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2_ / zetan_);
  }

  std::uint64_t Next(Rng& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank >= n_ ? n_ - 1 : rank;
  }

  // YCSB scrambles the rank so hot keys are scattered over the key space.
  std::uint64_t NextScrambled(Rng& rng) const {
    return Fnv(Next(rng)) % n_;
  }

 private:
  static double Zeta(std::uint64_t n, double theta) {
    double sum = 0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
  }
  static std::uint64_t Fnv(std::uint64_t v) {
    std::uint64_t hash = 14695981039346656037ull;
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (i * 8)) & 0xFF;
      hash *= 1099511628211ull;
    }
    return hash;
  }

  std::uint64_t n_;
  double theta_;
  double zetan_;
  double zeta2_;
  double alpha_;
  double eta_;
};

}  // namespace cowbird::workload
