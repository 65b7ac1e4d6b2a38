#include "sched/decorators.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace greenhpc::sched {

CheckpointDecorator::CheckpointDecorator(Config config,
                                         std::unique_ptr<hpcsim::SchedulingPolicy> inner)
    : cfg_(config), inner_(std::move(inner)) {
  GREENHPC_REQUIRE(inner_ != nullptr, "checkpoint decorator needs an inner scheduler");
  GREENHPC_REQUIRE(cfg_.resume_quantile < cfg_.suspend_quantile,
                   "resume quantile must sit below suspend quantile (hysteresis)");
}

std::string CheckpointDecorator::name() const {
  return inner_->name() + "+checkpoint";
}

double CheckpointDecorator::quantile_threshold(const hpcsim::SimulationView& view,
                                               double quantile) const {
  const auto& history = view.intensity_history();
  if (history.empty()) return view.carbon_intensity_now();
  const auto window_ticks = static_cast<std::size_t>(
      cfg_.history_window.seconds() / view.cluster().tick.seconds());
  const std::size_t n = std::min(history.size(), std::max<std::size_t>(window_ticks, 1));
  const std::span<const double> tail(history.data() + (history.size() - n), n);
  return util::percentile(tail, quantile);
}

namespace {

/// Nodes a suspended job resumes on: its request if rigid, else its
/// natural size clamped into its malleable range.
int resume_nodes(const hpcsim::JobTable& t, std::size_t i) {
  return t.kind[i] == hpcsim::JobKind::Rigid
             ? t.nodes_requested[i]
             : std::clamp(t.nodes_used[i], t.min_nodes[i], t.max_nodes[i]);
}

}  // namespace

void CheckpointDecorator::on_tick(hpcsim::SimulationView& view) {
  const hpcsim::JobTable& t = view.job_table();
  // Degraded-feed fallback: with the signal past its staleness horizon
  // there is no defensible carbon reason to keep work off the machine, so
  // resume everything (ignoring min_dwell — the hold's justification
  // expired with the signal) and stop suspending until the feed recovers.
  if (view.carbon_signal_staleness() > cfg_.staleness_horizon) {
    const std::vector<hpcsim::JobId> suspended = view.suspended_jobs();
    for (hpcsim::JobId id : suspended) {
      if (view.resume(id, resume_nodes(t, view.slot_of(id)))) suspended_at_.erase(id);
    }
    inner_->on_tick(view);
    return;
  }
  const double ci = view.carbon_intensity_now();
  // History needs a day of context before the thresholds mean anything.
  const bool warmed = view.intensity_history().size() * view.cluster().tick.seconds() >
                      86400.0;
  if (warmed) {
    const double hi = quantile_threshold(view, cfg_.suspend_quantile);
    const double lo = quantile_threshold(view, cfg_.resume_quantile);

    if (ci <= lo) {
      // Green: resume suspended jobs (oldest suspension first).
      std::vector<hpcsim::JobId> suspended = view.suspended_jobs();
      std::sort(suspended.begin(), suspended.end(),
                [&](hpcsim::JobId a, hpcsim::JobId b) {
                  return suspended_at_[a] < suspended_at_[b];
                });
      for (hpcsim::JobId id : suspended) {
        if (view.now() - suspended_at_[id] < cfg_.min_dwell) continue;
        if (view.resume(id, resume_nodes(t, view.slot_of(id)))) suspended_at_.erase(id);
      }
    } else if (ci >= hi) {
      // Dirty: suspend long-remaining checkpointable jobs, largest power
      // footprint first, bounded by the suspended-capacity cap.
      int suspended_nodes = 0;
      for (hpcsim::JobId id : view.suspended_jobs()) {
        suspended_nodes += t.nodes_used[view.slot_of(id)];
      }
      const int cap = static_cast<int>(cfg_.max_suspended_fraction *
                                       static_cast<double>(view.cluster().nodes));
      std::vector<hpcsim::JobId> running = view.running_jobs();
      const auto footprint_w = [&](hpcsim::JobId id) {
        const std::size_t i = view.slot_of(id);
        return t.alloc_nodes[i] * t.eff_power_w[i];
      };
      std::sort(running.begin(), running.end(), [&](hpcsim::JobId a, hpcsim::JobId b) {
        return footprint_w(a) > footprint_w(b);
      });
      for (hpcsim::JobId id : running) {
        if (suspended_nodes >= cap) break;
        const std::size_t i = view.slot_of(id);
        if (t.checkpointable[i] == 0) continue;
        if (view.estimated_remaining(id) < cfg_.min_remaining) continue;
        const int held = t.alloc_nodes[i];
        if (view.suspend(id)) {
          suspended_at_[id] = view.now();
          suspended_nodes += held;
        }
      }
    }
  }
  inner_->on_tick(view);
}

MalleableDecorator::MalleableDecorator(Config config,
                                       std::unique_ptr<hpcsim::SchedulingPolicy> inner)
    : cfg_(config), inner_(std::move(inner)) {
  GREENHPC_REQUIRE(inner_ != nullptr, "malleable decorator needs an inner scheduler");
  GREENHPC_REQUIRE(cfg_.target_utilization > 0.0 && cfg_.target_utilization <= 1.0,
                   "target utilization must be in (0,1]");
  GREENHPC_REQUIRE(cfg_.max_step >= 1, "max step must be >= 1");
}

std::string MalleableDecorator::name() const { return inner_->name() + "+malleable"; }

void MalleableDecorator::on_tick(hpcsim::SimulationView& view) {
  inner_->on_tick(view);

  const double budget_w = view.power_budget().watts() * cfg_.target_utilization;
  double draw_w = view.full_draw().watts();
  const hpcsim::JobTable& t = view.job_table();
  const auto alloc_of = [&](hpcsim::JobId id) { return t.alloc_nodes[view.slot_of(id)]; };

  std::vector<hpcsim::JobId> malleable;
  for (hpcsim::JobId id : view.running_jobs()) {
    if (t.kind[view.slot_of(id)] == hpcsim::JobKind::Malleable) malleable.push_back(id);
  }
  if (malleable.empty()) return;

  if (draw_w > budget_w) {
    // Over budget: shrink, largest allocations first.
    std::sort(malleable.begin(), malleable.end(), [&](hpcsim::JobId a, hpcsim::JobId b) {
      return alloc_of(a) > alloc_of(b);
    });
    for (hpcsim::JobId id : malleable) {
      if (draw_w <= budget_w) break;
      const std::size_t i = view.slot_of(id);
      const int alloc = t.alloc_nodes[i];
      const double per_node_w = t.eff_power_w[i];
      const int deficit_nodes =
          static_cast<int>(std::ceil((draw_w - budget_w) / per_node_w));
      const int target =
          std::max(t.min_nodes[i], alloc - std::min(cfg_.max_step, deficit_nodes));
      if (target < alloc && view.reshape(id, target)) {
        draw_w -= per_node_w * static_cast<double>(alloc - target);
      }
    }
  } else {
    // Headroom: grow, smallest allocations first (fairness).
    std::sort(malleable.begin(), malleable.end(), [&](hpcsim::JobId a, hpcsim::JobId b) {
      return alloc_of(a) < alloc_of(b);
    });
    for (hpcsim::JobId id : malleable) {
      const std::size_t i = view.slot_of(id);
      const int alloc = t.alloc_nodes[i];
      const double per_node_w = t.eff_power_w[i];
      const int headroom_nodes =
          static_cast<int>((budget_w - draw_w) / std::max(per_node_w, 1.0));
      if (headroom_nodes <= 0 || view.free_nodes() <= 0) break;
      const int target = std::min({t.max_nodes[i], alloc + cfg_.max_step,
                                   alloc + headroom_nodes, alloc + view.free_nodes()});
      if (target > alloc && view.reshape(id, target)) {
        draw_w += per_node_w * static_cast<double>(target - alloc);
      }
    }
  }
}

}  // namespace greenhpc::sched
