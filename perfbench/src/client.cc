#include "client.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

}  // namespace perfbench
