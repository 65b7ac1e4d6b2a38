#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace greenhpc::util {
namespace {

TEST(RunningStats, EmptyIsZeroed) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook sample
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SampleVarianceUsesBesselCorrection) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 1.0);
  EXPECT_NEAR(s.variance(), 2.0 / 3.0, 1e-12);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i * 0.7) * 10.0 + i * 0.01;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  RunningStats a_copy = a;
  a.merge(b);  // empty rhs: unchanged
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a_copy);  // empty lhs: adopts rhs
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0 / 3.0), 20.0);
}

TEST(Percentile, UnsortedInputAndSingleton) {
  std::vector<double> xs = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
  std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0.9), 7.0);
}

TEST(Percentile, Preconditions) {
  std::vector<double> xs;
  EXPECT_THROW((void)percentile(xs, 0.5), greenhpc::InvalidArgument);
  std::vector<double> ok = {1.0};
  EXPECT_THROW((void)percentile(ok, 1.5), greenhpc::InvalidArgument);
}

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// How the next pushed value relates to the window.
enum class Draw {
  Uniform,    ///< fresh continuous values
  Few,        ///< four distinct values: long runs of duplicates
  Constant,   ///< every value equal
  VsEvicted,  ///< equal to, above or below the value the push evicts
};

/// After every push the window's percentiles must equal util::percentile
/// over the same tail, by bit pattern.
void check_window(std::size_t capacity, Draw draw, std::uint64_t seed) {
  SlidingPercentile sp(capacity);
  std::deque<double> tail;
  Rng rng(seed);
  const std::size_t pushes = 2 * capacity + 25;
  for (std::size_t n = 0; n < pushes; ++n) {
    double x = 0.0;
    switch (draw) {
      case Draw::Uniform: x = rng.uniform(50.0, 600.0); break;
      case Draw::Few: x = 100.0 * static_cast<double>(rng.uniform_int(1, 4)); break;
      case Draw::Constant: x = 321.5; break;
      case Draw::VsEvicted: {
        // Before the window fills nothing is evicted: seed it with
        // duplicates-heavy values so equal neighbours exist.
        if (tail.size() < capacity) {
          x = 10.0 * static_cast<double>(rng.uniform_int(1, 5));
          break;
        }
        const double evicted = tail.front();
        switch (rng.uniform_int(0, 3)) {
          case 0: x = evicted; break;
          case 1: x = evicted + 10.0 * static_cast<double>(rng.uniform_int(1, 3)); break;
          case 2: x = evicted - 10.0 * static_cast<double>(rng.uniform_int(1, 3)); break;
          default:
            x = tail[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(tail.size()) - 1))];
        }
        break;
      }
    }
    sp.push(x);
    tail.push_back(x);
    if (tail.size() > capacity) tail.pop_front();
    ASSERT_EQ(sp.size(), tail.size());
    const std::vector<double> window(tail.begin(), tail.end());
    for (const double q : {0.0, 0.1, 0.4, 0.5, 0.9, 1.0}) {
      ASSERT_EQ(bits(sp.percentile(q)), bits(percentile(window, q)))
          << "capacity " << capacity << " push " << n << " q " << q;
    }
  }
}

TEST(SlidingPercentile, MatchesPercentileOfTheTailAfterEveryPush) {
  std::uint64_t seed = 1;
  for (const std::size_t capacity : {1u, 2u, 7u, 864u}) {
    for (const Draw draw : {Draw::Uniform, Draw::Few, Draw::Constant, Draw::VsEvicted}) {
      check_window(capacity, draw, seed++);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(SlidingPercentile, Preconditions) {
  EXPECT_THROW(SlidingPercentile(0), greenhpc::InvalidArgument);
  const SlidingPercentile empty(3);
  EXPECT_THROW((void)empty.percentile(0.5), greenhpc::InvalidArgument);
}

TEST(Summarize, FullSummary) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
  EXPECT_NEAR(s.p25, 25.75, 1e-9);
  EXPECT_NEAR(s.p75, 75.25, 1e-9);
  EXPECT_GT(s.p95, 90.0);
}

TEST(Summarize, EmptyYieldsZeroes) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Mape, BasicAndZeroSkip) {
  std::vector<double> actual = {100.0, 200.0, 0.0};
  std::vector<double> forecast = {110.0, 180.0, 50.0};
  // Zero actual is skipped: mean of 10% and 10%.
  EXPECT_NEAR(mape(actual, forecast), 0.10, 1e-12);
}

TEST(Mape, PerfectForecastIsZero) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mape(a, a), 0.0);
}

TEST(Rmse, KnownValue) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> f = {2.0, 2.0, 5.0};
  EXPECT_NEAR(rmse(a, f), std::sqrt((1.0 + 0.0 + 4.0) / 3.0), 1e-12);
}

TEST(Rmse, LengthMismatchThrows) {
  std::vector<double> a = {1.0};
  std::vector<double> f = {1.0, 2.0};
  EXPECT_THROW((void)rmse(a, f), greenhpc::InvalidArgument);
}

TEST(Pearson, PerfectCorrelations) {
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> y = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> yn = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(x, yn), -1.0, 1e-12);
}

TEST(Pearson, ConstantSeriesIsZero) {
  std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> c = {5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(pearson(x, c), 0.0);
}

TEST(Histogram, CountsAndClamping) {
  std::vector<double> xs = {-1.0, 0.1, 0.5, 0.9, 2.0};
  const auto h = histogram(xs, 0.0, 1.0, 2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0], 2u);  // -1 clamped in, 0.1
  EXPECT_EQ(h[1], 3u);  // 0.5, 0.9, 2.0 clamped in
}

TEST(Histogram, Preconditions) {
  std::vector<double> xs = {1.0};
  EXPECT_THROW((void)histogram(xs, 0.0, 1.0, 0), greenhpc::InvalidArgument);
  EXPECT_THROW((void)histogram(xs, 1.0, 1.0, 2), greenhpc::InvalidArgument);
}

}  // namespace
}  // namespace greenhpc::util
