// Summary statistics over repeated experiment runs.
#pragma once

#include <cstddef>
#include <vector>

namespace cbtc::exp {

/// Streaming accumulator: mean / min / max / stddev.
class summary {
 public:
  void add(double x);

  /// Folds another accumulator in (parallel partial reduction). The
  /// result depends on partial boundaries, not on which thread built
  /// which partial — merge partials in a fixed order for determinism.
  void merge(const summary& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  /// Sample standard deviation (n-1 denominator); 0 for n < 2.
  [[nodiscard]] double stddev() const;

  // Raw internals, exposed so an accumulator can cross a process
  // boundary exactly: (n, sum, sum_sq, min, max) is the whole state,
  // and shortest-round-trip doubles reproduce it bit for bit.
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double sum_squares() const { return sum_sq_; }
  [[nodiscard]] static summary from_raw(std::size_t n, double sum, double sum_sq, double min,
                                        double max) {
    summary s;
    s.n_ = n;
    s.sum_ = sum;
    s.sum_sq_ = sum_sq;
    s.min_ = min;
    s.max_ = max;
    return s;
  }

  /// Exact equality of the raw state (n, sum, sum_sq, min, max).
  [[nodiscard]] bool operator==(const summary&) const = default;

 private:
  std::size_t n_{0};
  double sum_{0.0};
  double sum_sq_{0.0};
  double min_{0.0};
  double max_{0.0};
};

/// Percentile (0..100) by nearest-rank on a copy of the data.
[[nodiscard]] double percentile(std::vector<double> values, double pct);

}  // namespace cbtc::exp
