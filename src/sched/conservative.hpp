#pragma once
// Conservative backfilling (Mu'alem & Feitelson, IEEE TPDS 2001): every
// queued job holds a reservation, and a job may only start early if it
// delays no reservation at all. Stronger fairness guarantees than EASY at
// the cost of lower utilization — the other classic RJMS baseline,
// included so the section-3.3 experiments can show the carbon-aware gate
// composes with either discipline.

#include <cstddef>
#include <vector>

#include "hpcsim/policy.hpp"
#include "sched/easy_backfill.hpp"

namespace greenhpc::sched {

/// Stepwise free-node profile over future time, seeded from the currently
/// running jobs' walltime-based completion estimates. Reservations carve
/// capacity out of the profile; earliest_fit() queries it.
class CapacityProfile {
 public:
  /// Empty profile; reset() it before use.
  CapacityProfile() = default;
  /// Profile starting at `now` with `free` nodes available immediately;
  /// same as reset(now, free) on an empty profile.
  CapacityProfile(Duration now, int free) { reset(now, free); }

  /// Restart at `now` with `free` nodes and no releases or reservations,
  /// keeping the breakpoint storage. Capacity beyond `free` arrives
  /// through add_release().
  void reset(Duration now, int free);
  /// Register a projected release of `nodes` at `time`.
  void add_release(Duration time, int nodes);
  /// Earliest time >= now at which `nodes` are continuously free for
  /// `duration`; now + 3650 d when no breakpoint works (a request wider
  /// than the steady capacity). One forward pass over the breakpoints.
  [[nodiscard]] Duration earliest_fit(int nodes, Duration duration) const;
  /// Reserve `nodes` over [start, start + duration), reducing the profile.
  void reserve(Duration start, Duration duration, int nodes);

  /// Free nodes at an instant (test hook).
  [[nodiscard]] int free_at(Duration t) const;
  /// Sorted breakpoints: capacity changes by `second` at `first` (test
  /// hook; times are unique, deltas may be zero after a +x/-x merge).
  [[nodiscard]] const std::vector<std::pair<Duration, int>>& breakpoints() const {
    return deltas_;
  }

 private:
  void add_delta(Duration time, int delta);

  Duration now_;
  std::vector<std::pair<Duration, int>> deltas_;
};

/// Walks the queue in order; every job gets the earliest reservation the
/// profile allows and starts right away when that reservation is "now".
///
/// The walk is pruned without changing a decision. start() needs
/// `nodes <= free_nodes()`, the policy keeps no state between ticks, and
/// a reservation made at position k only feeds the fits of jobs after k.
/// So once the minimum start size over positions k.. exceeds the free
/// count, nothing from k on can start and the walk stops; when that holds
/// at k = 0 the profile is never built.
///
/// Span attestations (the same three answers EASY gives, without
/// moldable shrinking):
///  - quiescent_until: forever when nothing is pending or no node is free;
///    otherwise the earliest walltime-projected end r1 of a running job,
///    or now if one has already overrun it. Proof: the engine asks only
///    after an on_tick that started nothing, so at `now` every job's fit
///    lay after now (a fit at now always starts: the profile's level at
///    now is the free count, less what this walk already started). No
///    breakpoint lies in (now, r1): releases sit at r1 or later, every
///    reservation starts at a fit (a breakpoint after now) and ends after
///    it. The profile from r1 on holds only absolute times, so at a tick
///    t in (now, r1) each candidate from r1 on is judged exactly as at
///    now, and the candidate t itself fails: the free count is unchanged
///    and a failed "start now" window only grows as the clock advances,
///    so the breakpoint that failed [now, now + d) lies inside [t, t + d).
///    Every fit, reservation and (absent) start repeats, except that a
///    request wider than the machine reserves at t + 3650 d instead of
///    now + 3650 d, a sentinel no walltime window reaches.
///  - quiescent_over_arrivals: free_nodes() == 0 (no start can succeed).
///  - quiescent_over_release: every pending job's start size exceeds
///    free_nodes() (no start can succeed at any tick of the window).
class ConservativeBackfillScheduler final : public hpcsim::SchedulingPolicy {
 public:
  void on_tick(hpcsim::SimulationView& view) override;
  [[nodiscard]] std::string name() const override { return "conservative-backfill"; }

  [[nodiscard]] Duration quiescent_until(
      const hpcsim::SimulationView& view) const override;
  [[nodiscard]] bool quiescent_over_arrivals(
      const hpcsim::SimulationView& view) const override {
    return view.free_nodes() == 0;
  }
  [[nodiscard]] bool quiescent_over_release(
      const hpcsim::SimulationView& view) const override {
    return no_pending_job_fits(view, /*shrink_moldable=*/false);
  }

 private:
  ReleaseCache releases_;
  CapacityProfile profile_;
  // Queue snapshot (start() mutates the queue), reused across ticks.
  std::vector<hpcsim::JobId> queue_;
  std::vector<std::size_t> slots_;
  std::vector<int> suffix_min_;  ///< min start size over positions k..
};

}  // namespace greenhpc::sched
