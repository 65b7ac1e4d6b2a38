// The carbon-aware EASY gate against its former per-tick implementation.
//
// CarbonAwareEasyScheduler::on_tick makes one pass over the pending queue
// and adds each obs counter once per tick. LegacyCarbonAwareEasy below is
// the earlier on_tick kept as an oracle: a queue snapshot, a backlog pass
// every tick, one counter add per held job, and the green threshold and
// forecaster history recomputed from scratch each tick. Over a seeded set
// of scenarios (max_hold expiry, backlog-pressure flips, a degraded feed
// that trips the staleness fallback, persistence and harmonic
// forecasters) both must produce the same SimulationResult bit for bit
// and the same totals of the sched.carbon.* counters. Comparing the
// reference engine against the fast one cannot catch a gate bug: both
// run the same policy code.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "carbon/forecast.hpp"
#include "carbon/trace_cache.hpp"
#include "hpcsim/simulator.hpp"
#include "hpcsim/workload.hpp"
#include "obs/metrics.hpp"
#include "resilience/degraded_feed.hpp"
#include "sched/carbon_aware.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "util/stats.hpp"
#include "util/time_series.hpp"

namespace greenhpc::sched {
namespace {

using Config = CarbonAwareEasyScheduler::Config;

/// The gate before the single-pass rewrite. Decisions and counter totals
/// are the contract; the threshold and the forecaster's history are
/// rebuilt from the view every tick instead of incrementally, and easy_pass
/// runs without a ReleaseCache, so neither memo is under test here.
class LegacyCarbonAwareEasy final : public hpcsim::SchedulingPolicy {
 public:
  LegacyCarbonAwareEasy(Config config, std::shared_ptr<const carbon::Forecaster> forecaster)
      : cfg_(config), forecaster_(std::move(forecaster)) {}

  void on_tick(hpcsim::SimulationView& view) override {
    pending_scratch_ = view.pending_jobs();  // snapshot: start() mutates the queue
    const std::vector<hpcsim::JobId>& pending = pending_scratch_;
    if (pending.empty()) return;

    if (view.carbon_signal_staleness() > cfg_.staleness_horizon) {
      static obs::Counter& stale_ticks =
          obs::Registry::global().counter("sched.carbon.stale_fallback_ticks");
      stale_ticks.add();
      easy_pass(view, pending, /*shrink_moldable=*/false);
      return;
    }

    const double threshold = threshold_from_scratch(view);
    const bool green_now = view.carbon_intensity_now() <= threshold;

    const hpcsim::JobTable& table = view.job_table();
    double backlog_nodes = 0.0;
    const double backlog_limit =
        cfg_.backlog_pressure_limit * static_cast<double>(view.cluster().nodes);
    for (hpcsim::JobId id : pending) {
      backlog_nodes += static_cast<double>(start_nodes(table, view.slot_of(id)));
      if (backlog_nodes > backlog_limit) break;
    }
    const bool pressured = backlog_nodes > backlog_limit;
    if (!green_now) ++(pressured ? pressured_ticks : unpressured_ticks);

    bool hold_allowed = !green_now && !pressured;
    if (hold_allowed) hold_allowed = greener_period_ahead(view);
    static obs::Counter& hold_ticks =
        obs::Registry::global().counter("sched.carbon.hold_ticks");
    static obs::Counter& held_jobs =
        obs::Registry::global().counter("sched.carbon.held_jobs");
    static obs::Counter& over_budget_releases =
        obs::Registry::global().counter("sched.carbon.released_over_budget");
    if (hold_allowed) hold_ticks.add();

    std::vector<hpcsim::JobId> eligible;
    for (hpcsim::JobId id : pending) {
      const Duration waited = view.now() - seconds(table.submit_s[view.slot_of(id)]);
      const bool over_budget = waited >= cfg_.max_hold;
      if (hold_allowed && !over_budget) {
        held_jobs.add();
        continue;
      }
      if (hold_allowed && over_budget) over_budget_releases.add();
      eligible.push_back(id);
    }
    if (!eligible.empty()) easy_pass(view, eligible, /*shrink_moldable=*/false);
  }
  [[nodiscard]] std::string name() const override { return "legacy-carbon-easy"; }

  // The span attestations are CarbonAwareEasyScheduler's: the engine then
  // skips the same ticks for both, so the counter totals are comparable.
  [[nodiscard]] Duration quiescent_until(
      const hpcsim::SimulationView& view) const override {
    if (view.pending_jobs().empty() || view.free_nodes() == 0) {
      return hpcsim::quiescent_forever();
    }
    return view.now();
  }
  [[nodiscard]] bool quiescent_over_arrivals(
      const hpcsim::SimulationView& view) const override {
    return view.free_nodes() == 0;
  }
  [[nodiscard]] bool quiescent_over_release(
      const hpcsim::SimulationView& view) const override {
    return view.pending_jobs().empty();
  }

  /// Dirty ticks on which the backlog did / did not open the gate.
  int pressured_ticks = 0;
  int unpressured_ticks = 0;

 private:
  double threshold_from_scratch(const hpcsim::SimulationView& view) const {
    const auto& history = view.intensity_history();
    if (history.empty()) return view.carbon_intensity_now();
    const auto window_ticks = static_cast<std::size_t>(
        cfg_.history_window.seconds() / view.cluster().tick.seconds());
    const std::size_t n = std::min(history.size(), std::max<std::size_t>(window_ticks, 1));
    return util::percentile(
        std::span<const double>(history.data() + (history.size() - n), n),
        cfg_.green_quantile);
  }

  bool greener_period_ahead(const hpcsim::SimulationView& view) const {
    const auto& history = view.intensity_history();
    if (history.size() < 2) return false;
    const util::TimeSeries hist(seconds(0.0), view.cluster().tick, history);
    const Duration now = hist.end();
    const double target = view.carbon_intensity_now() * cfg_.improvement_factor;
    for (Duration h = hours(1.0); h <= cfg_.lookahead; h += hours(1.0)) {
      if (forecaster_->forecast(hist, now, h) <= target) return true;
    }
    return false;
  }

  Config cfg_;
  std::shared_ptr<const carbon::Forecaster> forecaster_;
  std::vector<hpcsim::JobId> pending_scratch_;
};

constexpr const char* kCarbonCounters[] = {
    "sched.carbon.held_jobs", "sched.carbon.hold_ticks",
    "sched.carbon.released_over_budget", "sched.carbon.stale_fallback_ticks"};

struct CounterTotals {
  std::uint64_t v[4] = {};
};

CounterTotals read_counters() {
  CounterTotals t;
  for (std::size_t k = 0; k < 4; ++k) {
    t.v[k] = obs::Registry::global().counter(kCarbonCounters[k]).value();
  }
  return t;
}

struct GateCase {
  std::uint64_t seed;
  bool harmonic;   ///< HarmonicForecaster instead of PersistenceForecaster
  bool feed;       ///< observe intensity through a DegradedFeed
  double backlog;  ///< backlog_pressure_limit
  /// Submit on whole hours, so a job's wait reaches max_hold exactly on a
  /// tick (the >= edge of the budget test).
  bool hourly = false;
};

void PrintTo(const GateCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << (c.harmonic ? " harmonic" : " persistence")
      << (c.feed ? " feed" : "") << " backlog=" << c.backlog
      << (c.hourly ? " hourly" : "");
}

struct GateRun {
  hpcsim::SimulationResult result;
  CounterTotals counters;  ///< deltas over the run
};

template <typename Policy>
GateRun run_gate(const GateCase& c) {
  const Duration span = days(4.0);
  hpcsim::Simulator::Config cfg;
  cfg.cluster.nodes = 48;
  cfg.cluster.node_tdp = watts(500.0);
  cfg.cluster.node_idle = watts(110.0);
  cfg.cluster.tick = minutes(5.0);
  cfg.carbon_intensity = carbon::TraceCache::global().get(
      carbon::Region::Germany, carbon::IntensityKind::Average, c.seed, seconds(0.0),
      span + days(2.0), minutes(15.0));
  std::optional<resilience::DegradedFeed> feed;
  if (c.feed) {
    resilience::DegradedFeedConfig fc;
    fc.outage_fraction = 0.3;
    fc.mean_outage = hours(3.0);
    fc.seed = c.seed;
    feed.emplace(fc, span + days(2.0));
    cfg.feed = &*feed;
  }

  hpcsim::WorkloadConfig wl;
  wl.job_count = 170;
  wl.span = span;
  wl.max_job_nodes = 24;
  wl.runtime_mean = hours(3.0);
  wl.moldable_fraction = 0.2;
  if (c.hourly) wl.arrival_quantum = hours(1.0);
  const auto jobs = hpcsim::WorkloadGenerator(wl, c.seed).generate();

  Config cc;
  cc.max_hold = hours(4.0);  // short enough that holds expire often
  cc.lookahead = hours(12.0);
  cc.backlog_pressure_limit = c.backlog;
  cc.staleness_horizon = hours(1.0);
  std::shared_ptr<const carbon::Forecaster> forecaster;
  if (c.harmonic) {
    forecaster = std::make_shared<carbon::HarmonicForecaster>(days(2.0));
  } else {
    forecaster = std::make_shared<carbon::PersistenceForecaster>();
  }
  Policy policy(cc, forecaster);
  const CounterTotals before = read_counters();
  GateRun run{hpcsim::Simulator(cfg, jobs).run(policy), {}};
  const CounterTotals after = read_counters();
  for (std::size_t k = 0; k < 4; ++k) run.counters.v[k] = after.v[k] - before.v[k];
  if constexpr (std::is_same_v<Policy, LegacyCarbonAwareEasy>) {
    // Every case must see dirty ticks on which the backlog opened the
    // gate and dirty ticks on which it did not.
    EXPECT_GT(policy.pressured_ticks, 0) << "backlog never opened the gate";
    EXPECT_GT(policy.unpressured_ticks, 0) << "backlog always opened the gate";
  }
  return run;
}

::testing::AssertionResult same_bits(const char* ea, const char* eb, double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << ea << " vs " << eb << ": " << a << " vs " << b;
}

void expect_same_series(const util::TimeSeries& a, const util::TimeSeries& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_PRED_FORMAT2(same_bits, a.values()[i], b.values()[i]) << what << " " << i;
  }
}

class CarbonGateOracle : public ::testing::TestWithParam<GateCase> {};

TEST_P(CarbonGateOracle, SameResultAndCounterTotalsAsTheLegacyGate) {
  const GateCase& c = GetParam();
  const GateRun legacy = run_gate<LegacyCarbonAwareEasy>(c);
  const GateRun fast = run_gate<CarbonAwareEasyScheduler>(c);
  const hpcsim::SimulationResult& a = legacy.result;
  const hpcsim::SimulationResult& b = fast.result;

  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(legacy.counters.v[k], fast.counters.v[k]) << kCarbonCounters[k];
  }
  // The case set must exercise what the rewrite touched: holds, max_hold
  // expiry, and (with a feed) the staleness fallback.
  EXPECT_GT(legacy.counters.v[0], 0u) << "no job was held";
  EXPECT_GT(legacy.counters.v[2], 0u) << "no hold expired";
  if (c.feed) {
    EXPECT_GT(legacy.counters.v[3], 0u) << "the feed never went stale";
  }

  EXPECT_GT(a.completed_jobs, 0);
  EXPECT_EQ(a.completed_jobs, b.completed_jobs);
  EXPECT_PRED_FORMAT2(same_bits, a.makespan.seconds(), b.makespan.seconds());
  EXPECT_PRED_FORMAT2(same_bits, a.total_energy.joules(), b.total_energy.joules());
  EXPECT_PRED_FORMAT2(same_bits, a.total_carbon.grams(), b.total_carbon.grams());
  EXPECT_PRED_FORMAT2(same_bits, a.idle_energy.joules(), b.idle_energy.joules());
  EXPECT_PRED_FORMAT2(same_bits, a.idle_carbon.grams(), b.idle_carbon.grams());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const auto& ja = a.jobs[i];
    const auto& jb = b.jobs[i];
    ASSERT_EQ(ja.spec.id, jb.spec.id);
    ASSERT_EQ(ja.completed, jb.completed) << "job " << ja.spec.id;
    ASSERT_PRED_FORMAT2(same_bits, ja.start.seconds(), jb.start.seconds())
        << "job " << ja.spec.id;
    ASSERT_PRED_FORMAT2(same_bits, ja.finish.seconds(), jb.finish.seconds())
        << "job " << ja.spec.id;
    ASSERT_PRED_FORMAT2(same_bits, ja.energy.joules(), jb.energy.joules())
        << "job " << ja.spec.id;
    ASSERT_PRED_FORMAT2(same_bits, ja.carbon.grams(), jb.carbon.grams())
        << "job " << ja.spec.id;
  }
  expect_same_series(a.system_power, b.system_power, "system_power");
  expect_same_series(a.carbon_intensity, b.carbon_intensity, "carbon_intensity");
  expect_same_series(a.busy_nodes, b.busy_nodes, "busy_nodes");
}

std::string gate_case_name(const ::testing::TestParamInfo<GateCase>& info) {
  const GateCase& c = info.param;
  return std::string(c.harmonic ? "harmonic" : "persistence") + (c.feed ? "_feed" : "") +
         (c.hourly ? "_hourly" : "") + "_s" + std::to_string(c.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, CarbonGateOracle,
    ::testing::Values(GateCase{1, false, false, 1.0}, GateCase{2, true, false, 1.0},
                      GateCase{3, false, true, 1.0}, GateCase{4, true, true, 1.0},
                      GateCase{5, false, false, 2.0, true}, GateCase{6, true, true, 0.5, true}),
    gate_case_name);

}  // namespace
}  // namespace greenhpc::sched
