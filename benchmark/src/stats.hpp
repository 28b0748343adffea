// Order statistics shared by the run protocol and `compare`.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace lbe::benchmark {

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (its default "exclusive" method), so an IQR printed here is the IQR any
/// script computes from the same samples. A single sample is its own
/// quartiles.
inline Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("quartiles of no samples");
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  if (ld == 1) return {values[0], values[0], values[0]};
  const long n = 4;
  const long m = ld + 1;
  double cut[3] = {};
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(n - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return {cut[0], median(values), cut[2]};
}

/// Nearest-rank percentile, p in [0, 1]; 0 when empty.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

}  // namespace lbe::benchmark
