#include "sched/carbon_aware.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace greenhpc::sched {

CarbonAwareEasyScheduler::CarbonAwareEasyScheduler(
    Config config, std::shared_ptr<const carbon::Forecaster> forecaster)
    : cfg_(config), forecaster_(std::move(forecaster)) {
  GREENHPC_REQUIRE(forecaster_ != nullptr, "carbon-aware scheduler needs a forecaster");
  GREENHPC_REQUIRE(cfg_.green_quantile > 0.0 && cfg_.green_quantile < 1.0,
                   "green quantile must be in (0,1)");
  GREENHPC_REQUIRE(cfg_.improvement_factor > 0.0 && cfg_.improvement_factor <= 1.0,
                   "improvement factor must be in (0,1]");
}

double CarbonAwareEasyScheduler::current_threshold(
    const hpcsim::SimulationView& view) const {
  const auto& history = view.intensity_history();
  if (history.empty()) return view.carbon_intensity_now();
  const auto window_ticks = static_cast<std::size_t>(
      cfg_.history_window.seconds() / view.cluster().tick.seconds());
  const std::size_t n = std::min(history.size(), std::max<std::size_t>(window_ticks, 1));
  const std::span<const double> tail(history.data() + (history.size() - n), n);
  return util::percentile(tail, cfg_.green_quantile);
}

double CarbonAwareEasyScheduler::incremental_threshold(
    const hpcsim::SimulationView& view) {
  const auto& history = view.intensity_history();
  if (history.empty()) return view.carbon_intensity_now();
  const auto window_ticks = static_cast<std::size_t>(
      cfg_.history_window.seconds() / view.cluster().tick.seconds());
  const std::size_t cap = std::max<std::size_t>(window_ticks, 1);
  if (cap != threshold_window_.capacity() || history.size() < threshold_consumed_) {
    threshold_window_ = util::SlidingPercentile(cap);
    threshold_consumed_ = 0;
  }
  for (; threshold_consumed_ < history.size(); ++threshold_consumed_) {
    threshold_window_.push(history[threshold_consumed_]);
  }
  // The window now holds the last min(size, cap) history values — exactly
  // the tail current_threshold() takes its percentile over.
  return threshold_window_.percentile(cfg_.green_quantile);
}

const util::TimeSeries& CarbonAwareEasyScheduler::history_series(
    const hpcsim::SimulationView& view) {
  const auto& history = view.intensity_history();
  const Duration tick = view.cluster().tick;
  if (history.size() < hist_consumed_ || hist_series_.step() != tick ||
      hist_consumed_ == 0) {
    hist_series_ = util::TimeSeries(seconds(0.0), tick);
    hist_consumed_ = 0;
  }
  for (; hist_consumed_ < history.size(); ++hist_consumed_) {
    hist_series_.push_back(history[hist_consumed_]);
  }
  return hist_series_;
}

bool CarbonAwareEasyScheduler::greener_period_ahead(
    const hpcsim::SimulationView& view) {
  const auto& history = view.intensity_history();
  if (history.size() < 2) return false;  // nothing to forecast from yet
  const util::TimeSeries& hist = history_series(view);
  const Duration now = hist.end();
  const double target = view.carbon_intensity_now() * cfg_.improvement_factor;
  for (Duration h = hours(1.0); h <= cfg_.lookahead; h += hours(1.0)) {
    if (forecaster_->forecast(hist, now, h) <= target) return true;
  }
  return false;
}

void CarbonAwareEasyScheduler::on_tick(hpcsim::SimulationView& view) {
  // easy_pass starts jobs, which mutates the pending queue, so every path
  // below hands it a copy: the queue itself, or the jobs not held.
  const std::vector<hpcsim::JobId>& pending = view.pending_jobs();
  if (pending.empty()) return;
  std::vector<hpcsim::JobId>& eligible = eligible_scratch_;

  // Degraded-feed fallback: past the staleness horizon the held value is
  // no longer trustworthy, so drop to carbon-blind EASY rather than gate
  // on a phantom grid state.
  if (view.carbon_signal_staleness() > cfg_.staleness_horizon) {
    static obs::Counter& stale_ticks =
        obs::Registry::global().counter("sched.carbon.stale_fallback_ticks");
    stale_ticks.add();
    eligible.assign(pending.begin(), pending.end());
    easy_pass(view, eligible, /*shrink_moldable=*/false, &releases_);
    return;
  }

  const bool hold_allowed =
      !green_now(view) && !pressured(view) && greener_period_ahead(view);
  if (!hold_allowed) {
    eligible.assign(pending.begin(), pending.end());
    easy_pass(view, eligible, /*shrink_moldable=*/false, &releases_);
    return;
  }

  // Hold every job still inside its wait budget for the green period;
  // the rest are released to EASY. One pass, counters added once.
  static obs::Counter& hold_ticks =
      obs::Registry::global().counter("sched.carbon.hold_ticks");
  static obs::Counter& held_jobs =
      obs::Registry::global().counter("sched.carbon.held_jobs");
  static obs::Counter& over_budget_releases =
      obs::Registry::global().counter("sched.carbon.released_over_budget");
  hold_ticks.add();
  const hpcsim::JobTable& table = view.job_table();
  const Duration now = view.now();
  eligible.clear();
  for (hpcsim::JobId id : pending) {
    const Duration waited = now - seconds(table.submit_s[view.slot_of(id)]);
    if (waited >= cfg_.max_hold) eligible.push_back(id);
  }
  held_jobs.add(pending.size() - eligible.size());
  if (eligible.empty()) return;
  over_budget_releases.add(eligible.size());
  easy_pass(view, eligible, /*shrink_moldable=*/false, &releases_);
}

bool CarbonAwareEasyScheduler::green_now(const hpcsim::SimulationView& view) {
  return view.carbon_intensity_now() <= incremental_threshold(view);
}

bool CarbonAwareEasyScheduler::pressured(const hpcsim::SimulationView& view) const {
  // Queue-pressure guard: holding jobs while the backlog is deep only
  // trades wait time for no carbon benefit (the machine will be full
  // either way), so the gate opens under pressure.
  const hpcsim::JobTable& table = view.job_table();
  const double backlog_limit =
      cfg_.backlog_pressure_limit * static_cast<double>(view.cluster().nodes);
  double backlog_nodes = 0.0;
  for (hpcsim::JobId id : view.pending_jobs()) {
    backlog_nodes += static_cast<double>(start_nodes(table, view.slot_of(id)));
    if (backlog_nodes > backlog_limit) return true;  // only the comparison matters
  }
  return false;
}

}  // namespace greenhpc::sched
