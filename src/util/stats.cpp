#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace greenhpc::util {

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::sample_variance() const {
  return n_ >= 2 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }
double RunningStats::sample_stddev() const { return std::sqrt(sample_variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  mean_ = (na * mean_ + nb * other.mean_) / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double percentile(std::span<const double> xs, double q) {
  GREENHPC_REQUIRE(!xs.empty(), "percentile of empty sample");
  GREENHPC_REQUIRE(q >= 0.0 && q <= 1.0, "percentile q must be in [0,1]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

SlidingPercentile::SlidingPercentile(std::size_t capacity) : capacity_(capacity) {
  GREENHPC_REQUIRE(capacity_ >= 1, "sliding percentile window must hold >= 1 value");
  order_.reserve(capacity_);
  sorted_.reserve(capacity_);
}

void SlidingPercentile::push(double x) {
  if (order_.size() < capacity_) {
    order_.push_back(x);
    sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), x), x);
    return;
  }
  // Full window: the oldest value leaves and x enters in one shift of the
  // elements between the two positions. Any element equal to the victim
  // is interchangeable in the sorted sequence, so evicting the first match
  // is exact.
  const double victim = order_[oldest_];
  order_[oldest_] = x;
  oldest_ = (oldest_ + 1) % capacity_;
  const auto out = std::lower_bound(sorted_.begin(), sorted_.end(), victim);
  const auto in = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  if (in > out) {
    // x sorts after the victim: close the gap leftwards, x lands just
    // before its upper bound.
    *std::move(out + 1, in, out) = x;
  } else {
    // x sorts before the victim: open a slot at `in`.
    std::move_backward(in, out, out + 1);
    *in = x;
  }
}

double SlidingPercentile::percentile(double q) const {
  // Mirrors util::percentile on the already-sorted window so results are
  // bit-identical to recomputing from scratch each query.
  GREENHPC_REQUIRE(!sorted_.empty(), "percentile of empty sample");
  GREENHPC_REQUIRE(q >= 0.0 && q <= 1.0, "percentile q must be in [0,1]");
  if (sorted_.size() == 1) return sorted_.front();
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  if (xs.empty()) return s;
  RunningStats rs;
  for (double x : xs) rs.add(x);
  s.count = rs.count();
  s.mean = rs.mean();
  s.stddev = rs.sample_stddev();
  s.min = rs.min();
  s.max = rs.max();
  s.p25 = percentile(xs, 0.25);
  s.median = percentile(xs, 0.50);
  s.p75 = percentile(xs, 0.75);
  s.p95 = percentile(xs, 0.95);
  return s;
}

double mape(std::span<const double> actual, std::span<const double> forecast) {
  GREENHPC_REQUIRE(actual.size() == forecast.size(), "mape length mismatch");
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] == 0.0) continue;
    total += std::fabs((forecast[i] - actual[i]) / actual[i]);
    ++n;
  }
  return n ? total / static_cast<double>(n) : 0.0;
}

double rmse(std::span<const double> actual, std::span<const double> forecast) {
  GREENHPC_REQUIRE(actual.size() == forecast.size() && !actual.empty(),
                   "rmse requires matching non-empty samples");
  double total = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double d = forecast[i] - actual[i];
    total += d * d;
  }
  return std::sqrt(total / static_cast<double>(actual.size()));
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  GREENHPC_REQUIRE(xs.size() == ys.size() && !xs.empty(),
                   "pearson requires matching non-empty samples");
  RunningStats sx, sy;
  for (double x : xs) sx.add(x);
  for (double y : ys) sy.add(y);
  if (sx.stddev() == 0.0 || sy.stddev() == 0.0) return 0.0;
  double cov = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    cov += (xs[i] - sx.mean()) * (ys[i] - sy.mean());
  }
  cov /= static_cast<double>(xs.size());
  return cov / (sx.stddev() * sy.stddev());
}

std::vector<std::size_t> histogram(std::span<const double> xs, double lo, double hi,
                                   std::size_t bins) {
  GREENHPC_REQUIRE(bins > 0, "histogram needs at least one bin");
  GREENHPC_REQUIRE(hi > lo, "histogram range must be non-degenerate");
  std::vector<std::size_t> counts(bins, 0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double x : xs) {
    auto idx = static_cast<std::ptrdiff_t>((x - lo) / width);
    idx = std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(bins) - 1);
    ++counts[static_cast<std::size_t>(idx)];
  }
  return counts;
}

}  // namespace greenhpc::util
