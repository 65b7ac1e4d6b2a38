#include "sched/conservative.hpp"

#include <algorithm>
#include <limits>

#include "sched/fcfs.hpp"
#include "util/error.hpp"

namespace greenhpc::sched {

void CapacityProfile::reset(Duration now, int free) {
  GREENHPC_REQUIRE(free >= 0, "free nodes must be >= 0");
  now_ = now;
  deltas_.clear();
  deltas_.emplace_back(now, free);
}

void CapacityProfile::add_delta(Duration time, int delta) {
  const auto it = std::lower_bound(
      deltas_.begin(), deltas_.end(), time,
      [](const std::pair<Duration, int>& p, Duration t) { return p.first < t; });
  if (it != deltas_.end() && it->first == time) {
    it->second += delta;
  } else {
    deltas_.insert(it, {time, delta});
  }
}

void CapacityProfile::add_release(Duration time, int nodes) {
  GREENHPC_REQUIRE(nodes >= 0, "release must be >= 0 nodes");
  add_delta(std::max(time, now_), nodes);
}

int CapacityProfile::free_at(Duration t) const {
  int level = 0;
  for (const auto& [time, delta] : deltas_) {
    if (time > t) break;
    level += delta;
  }
  return level;
}

Duration CapacityProfile::earliest_fit(int nodes, Duration duration) const {
  GREENHPC_REQUIRE(nodes >= 1, "fit query needs at least one node");
  // The candidate is the first breakpoint at or after now_ since the level
  // last dipped below `nodes`. A dip inside the candidate's window also
  // fails every later breakpoint of the same run (their windows reach at
  // least as far), so dropping the whole run and waiting for the next
  // sufficient level finds the same first fit as trying each breakpoint.
  int level = 0;
  bool have = false;
  Duration candidate;
  for (const auto& [time, delta] : deltas_) {
    if (have && time >= candidate + duration) return candidate;
    level += delta;
    if (time < now_) continue;
    if (level < nodes) {
      have = false;
    } else if (!have) {
      have = true;
      candidate = time;
    }
  }
  // Past the last breakpoint the level never changes again. With no
  // candidate left the request exceeds the steady capacity and never fits.
  return have ? candidate : now_ + days(3650.0);
}

void CapacityProfile::reserve(Duration start, Duration duration, int nodes) {
  GREENHPC_REQUIRE(nodes >= 1 && duration.seconds() > 0.0, "reservation must be non-empty");
  add_delta(start, -nodes);
  add_delta(start + duration, nodes);
}

void ConservativeBackfillScheduler::on_tick(hpcsim::SimulationView& view) {
  const std::vector<hpcsim::JobId>& pending = view.pending_jobs();
  if (pending.empty()) return;
  const hpcsim::JobTable& table = view.job_table();
  const std::size_t n = pending.size();
  queue_.assign(pending.begin(), pending.end());
  slots_.resize(n);
  suffix_min_.resize(n);
  int smallest = std::numeric_limits<int>::max();
  for (std::size_t k = n; k-- > 0;) {
    slots_[k] = view.slot_of(queue_[k]);
    smallest = std::min(smallest, start_nodes(table, slots_[k]));
    suffix_min_[k] = smallest;
  }
  // Nothing from position k on can start once suffix_min_[k] exceeds the
  // free count (see the class comment): stop there, or never build.
  if (suffix_min_[0] > view.free_nodes()) return;

  profile_.reset(view.now(), view.free_nodes());
  for (const ReleaseEvent& release : releases_.get(view)) {
    profile_.add_release(release.time, release.nodes);
  }
  for (std::size_t k = 0; k < n && suffix_min_[k] <= view.free_nodes(); ++k) {
    const int nodes = start_nodes(table, slots_[k]);
    const Duration walltime = seconds(table.walltime_s[slots_[k]]);
    const Duration start = profile_.earliest_fit(nodes, walltime);
    if (start <= view.now()) {
      if (view.start(queue_[k], nodes)) {
        profile_.reserve(view.now(), walltime, nodes);
      }
    } else {
      profile_.reserve(start, walltime, nodes);
    }
  }
}

Duration ConservativeBackfillScheduler::quiescent_until(
    const hpcsim::SimulationView& view) const {
  if (view.pending_jobs().empty() || view.free_nodes() == 0) {
    return hpcsim::quiescent_forever();
  }
  return earliest_projected_end(view);
}

}  // namespace greenhpc::sched
