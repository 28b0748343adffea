#include "chem/spectrum.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

namespace lbe::chem {

void Spectrum::finalize() {
  if (mz_.size() <= 1) return;
  std::vector<std::size_t> order(mz_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Strictly ascending input is already in the one order the sort could
  // produce; input with ties still goes through it, since it may swap them.
  if (std::adjacent_find(mz_.begin(), mz_.end(), std::greater_equal<>()) !=
      mz_.end()) {
    std::sort(order.begin(), order.end(),
              [this](std::size_t a, std::size_t b) { return mz_[a] < mz_[b]; });
  }

  std::vector<Mz> mz_sorted;
  std::vector<float> int_sorted;
  mz_sorted.reserve(mz_.size());
  int_sorted.reserve(mz_.size());
  constexpr Mz kMergeEps = 1e-6;
  for (const std::size_t idx : order) {
    if (!mz_sorted.empty() && std::abs(mz_[idx] - mz_sorted.back()) < kMergeEps) {
      int_sorted.back() += intensity_[idx];
    } else {
      mz_sorted.push_back(mz_[idx]);
      int_sorted.push_back(intensity_[idx]);
    }
  }
  mz_ = std::move(mz_sorted);
  intensity_ = std::move(int_sorted);
}

double Spectrum::tic() const noexcept {
  double sum = 0.0;
  for (const float v : intensity_) sum += static_cast<double>(v);
  return sum;
}

}  // namespace lbe::chem
