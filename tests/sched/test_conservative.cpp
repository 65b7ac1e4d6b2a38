#include "sched/conservative.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "hpcsim/simulator.hpp"
#include "hpcsim/workload.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "testing/helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace greenhpc::sched {
namespace {

using greenhpc::testing::constant_trace;
using greenhpc::testing::rigid_job;
using greenhpc::testing::small_cluster;
using hpcsim::Simulator;

TEST(CapacityProfile, ImmediateFit) {
  CapacityProfile p(hours(1.0), 8);
  EXPECT_EQ(p.earliest_fit(4, hours(2.0)), hours(1.0));
  EXPECT_EQ(p.free_at(hours(1.0)), 8);
}

TEST(CapacityProfile, WaitsForRelease) {
  CapacityProfile p(hours(0.0), 2);
  p.add_release(hours(3.0), 6);
  EXPECT_EQ(p.earliest_fit(4, hours(1.0)), hours(3.0));
  EXPECT_EQ(p.earliest_fit(2, hours(1.0)), hours(0.0));
}

TEST(CapacityProfile, ReservationCarvesCapacity) {
  CapacityProfile p(hours(0.0), 8);
  p.reserve(hours(0.0), hours(2.0), 6);
  // Only 2 free until t=2h.
  EXPECT_EQ(p.free_at(hours(1.0)), 2);
  EXPECT_EQ(p.earliest_fit(4, hours(1.0)), hours(2.0));
  EXPECT_EQ(p.earliest_fit(2, hours(1.0)), hours(0.0));
}

TEST(CapacityProfile, FitMustHoldForWholeDuration) {
  CapacityProfile p(hours(0.0), 8);
  // Future reservation at t=2h takes 6 nodes for 2h.
  p.reserve(hours(2.0), hours(2.0), 6);
  // A 4-node job lasting 3h cannot start at t=0 (would overlap), nor at
  // t=2 (only 2 free); earliest is t=4h.
  EXPECT_EQ(p.earliest_fit(4, hours(3.0)), hours(4.0));
  // A 2-node job of any length fits immediately.
  EXPECT_EQ(p.earliest_fit(2, hours(10.0)), hours(0.0));
}

TEST(CapacityProfile, ImpossibleRequestsGoFarFuture) {
  CapacityProfile p(hours(0.0), 4);
  EXPECT_GT(p.earliest_fit(16, hours(1.0)), days(1000.0));
}

TEST(CapacityProfile, Preconditions) {
  EXPECT_THROW(CapacityProfile(hours(0.0), -1), greenhpc::InvalidArgument);
  CapacityProfile p(hours(0.0), 4);
  EXPECT_THROW(p.add_release(hours(1.0), -2), greenhpc::InvalidArgument);
  EXPECT_THROW((void)p.earliest_fit(0, hours(1.0)), greenhpc::InvalidArgument);
  EXPECT_THROW(p.reserve(hours(0.0), seconds(0.0), 1), greenhpc::InvalidArgument);
}

using Breakpoints = std::vector<std::pair<Duration, int>>;

/// The original earliest_fit, kept as the oracle: for every breakpoint at
/// or after `now`, re-sum the level from the start and re-walk its window.
Duration quadratic_fit(const Breakpoints& deltas, Duration now, int nodes,
                       Duration duration) {
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const Duration start = deltas[i].first;
    if (start < now) continue;
    int level = 0;
    for (std::size_t j = 0; j <= i; ++j) level += deltas[j].second;
    if (level < nodes) continue;
    bool ok = true;
    const Duration end = start + duration;
    for (std::size_t j = i + 1; j < deltas.size() && deltas[j].first < end; ++j) {
      level += deltas[j].second;
      if (level < nodes) {
        ok = false;
        break;
      }
    }
    if (ok) return start;
  }
  return now + days(3650.0);
}

void expect_same_bits(Duration a, Duration b, const char* what) {
  const double x = a.seconds();
  const double y = b.seconds();
  EXPECT_EQ(std::memcmp(&x, &y, sizeof(x)), 0) << what << ": " << x << " vs " << y;
}

void expect_fit_matches_oracle(const CapacityProfile& p, Duration now, int nodes,
                               Duration duration) {
  expect_same_bits(p.earliest_fit(nodes, duration),
                   quadratic_fit(p.breakpoints(), now, nodes, duration), "fit");
}

TEST(CapacityProfile, ZeroDeltaBreakpointFromMergedReservations) {
  CapacityProfile p(hours(0.0), 4);
  p.add_release(hours(4.0), 4);
  // One reservation ends at 2h exactly where the next begins: the +3/-3
  // merge leaves a zero-delta breakpoint at 2h.
  p.reserve(hours(0.0), hours(2.0), 3);
  p.reserve(hours(2.0), hours(1.0), 3);
  ASSERT_EQ(p.breakpoints().size(), 4u);
  EXPECT_EQ(p.breakpoints()[1].second, 0);
  EXPECT_EQ(p.earliest_fit(2, hours(1.0)), hours(3.0));
  EXPECT_EQ(p.earliest_fit(1, hours(5.0)), hours(0.0));
  for (int nodes = 1; nodes <= 9; ++nodes) {
    expect_fit_matches_oracle(p, hours(0.0), nodes, hours(1.0));
    expect_fit_matches_oracle(p, hours(0.0), nodes, hours(3.5));
  }
}

TEST(CapacityProfile, ReservationStartingAtNow) {
  CapacityProfile p(hours(1.0), 6);
  p.add_release(hours(2.0), 2);
  p.reserve(hours(1.0), hours(3.0), 5);  // one node left until 4h
  EXPECT_EQ(p.earliest_fit(1, hours(9.0)), hours(1.0));
  EXPECT_EQ(p.earliest_fit(3, hours(1.0)), hours(2.0));
  EXPECT_EQ(p.earliest_fit(4, hours(1.0)), hours(4.0));
  for (int nodes = 1; nodes <= 9; ++nodes) {
    expect_fit_matches_oracle(p, hours(1.0), nodes, hours(2.0));
  }
}

TEST(CapacityProfile, FitsExactlyAtTheLastBreakpoint) {
  CapacityProfile p(hours(0.0), 1);
  p.add_release(hours(1.0), 2);
  p.add_release(hours(5.0), 5);
  EXPECT_EQ(p.earliest_fit(8, hours(100.0)), hours(5.0));
  EXPECT_EQ(p.earliest_fit(3, hours(100.0)), hours(1.0));
  expect_fit_matches_oracle(p, hours(0.0), 8, hours(100.0));
}

TEST(CapacityProfile, WindowEndingOnABreakpointIsOpenAtTheEnd) {
  CapacityProfile p(hours(0.0), 4);
  p.reserve(hours(2.0), hours(1.0), 4);
  // [0, 2h) touches the drop at 2h only at its open end: fits at 0.
  EXPECT_EQ(p.earliest_fit(4, hours(2.0)), hours(0.0));
  // One second longer and the drop is inside the window: wait for 3h.
  EXPECT_EQ(p.earliest_fit(4, hours(2.0) + seconds(1.0)), hours(3.0));
  expect_fit_matches_oracle(p, hours(0.0), 4, hours(2.0));
  expect_fit_matches_oracle(p, hours(0.0), 4, hours(2.0) + seconds(1.0));
}

TEST(CapacityProfile, RequestWiderThanTheMachineNeverFits) {
  CapacityProfile p(hours(2.0), 3);
  p.add_release(hours(4.0), 5);
  EXPECT_EQ(p.earliest_fit(9, hours(1.0)), hours(2.0) + days(3650.0));
  expect_fit_matches_oracle(p, hours(2.0), 9, hours(1.0));
}

/// Thousands of seeded random profiles on a coarse hourly grid, so
/// coinciding breakpoints, zero-delta merges, reservations at now and
/// windows ending exactly on a breakpoint all occur often; the one-pass
/// earliest_fit must equal the quadratic oracle bit for bit.
TEST(CapacityProfile, OnePassFitMatchesQuadraticOracle) {
  util::Rng rng(20010601);
  int zero_deltas = 0;
  int at_last = 0;
  int never = 0;
  int queries = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const int total = static_cast<int>(rng.uniform_int(1, 12));
    const Duration now = hours(static_cast<double>(rng.uniform_int(0, 3)));
    int free = static_cast<int>(rng.uniform_int(0, total));
    CapacityProfile p(now, free);
    // Releases (some before now, clamped onto it) until the machine drains.
    while (free < total) {
      const int n = static_cast<int>(rng.uniform_int(1, total - free));
      p.add_release(hours(static_cast<double>(rng.uniform_int(0, 10))), n);
      free += n;
    }
    const int reservations = static_cast<int>(rng.uniform_int(0, 6));
    for (int r = 0; r < reservations; ++r) {
      const Duration start = now + hours(static_cast<double>(rng.uniform_int(0, 8)));
      p.reserve(start, hours(static_cast<double>(rng.uniform_int(1, 4))),
                static_cast<int>(rng.uniform_int(1, total)));
    }
    for (const auto& [time, delta] : p.breakpoints()) zero_deltas += delta == 0;
    for (int q = 0; q < 4; ++q) {
      const int nodes = static_cast<int>(rng.uniform_int(1, total + 1));
      const Duration duration = rng.uniform() < 0.8
                                    ? hours(static_cast<double>(rng.uniform_int(1, 6)))
                                    : seconds(rng.uniform(1.0, 20000.0));
      const Duration fit = p.earliest_fit(nodes, duration);
      expect_same_bits(fit, quadratic_fit(p.breakpoints(), now, nodes, duration), "fit");
      if (::testing::Test::HasFailure()) {
        FAIL() << "trial " << trial << " nodes " << nodes << " duration "
               << duration.seconds();
      }
      ++queries;
      at_last += fit == p.breakpoints().back().first;
      never += fit == now + days(3650.0);
    }
  }
  EXPECT_EQ(queries, 12000);
  // The sweep reaches the edge cases it exists for.
  EXPECT_GT(zero_deltas, 100);
  EXPECT_GT(at_last, 100);
  EXPECT_GT(never, 100);
}

Simulator::Config cfg(int nodes) {
  Simulator::Config c;
  c.cluster = small_cluster(nodes);
  c.carbon_intensity = constant_trace(200.0, days(3.0));
  return c;
}

TEST(Conservative, RunsWorkloadToCompletion) {
  std::vector<hpcsim::JobSpec> jobs;
  for (int i = 0; i < 20; ++i) {
    jobs.push_back(rigid_job(i + 1, minutes(i * 9.0), 1 + (i * 5) % 8,
                             minutes(30.0 + (i * 13) % 90)));
  }
  Simulator sim(cfg(8), jobs);
  ConservativeBackfillScheduler sched;
  const auto result = sim.run(sched);
  EXPECT_EQ(result.completed_jobs, 20);
}

TEST(Conservative, BackfillsShortJobsIntoHoles) {
  std::vector<hpcsim::JobSpec> jobs = {
      rigid_job(1, seconds(0.0), 6, hours(2.0)),
      rigid_job(2, minutes(1.0), 8, hours(1.0)),   // blocked, reserved at ~3h (walltime)
      rigid_job(3, minutes(2.0), 2, hours(1.0)),   // walltime 1.5h fits before shadow
  };
  Simulator sim(cfg(8), jobs);
  ConservativeBackfillScheduler sched;
  const auto result = sim.run(sched);
  EXPECT_LT(result.jobs[2].start.hours(), 0.2);
  EXPECT_GE(result.jobs[1].start, result.jobs[0].start);
}

TEST(Conservative, NeverDelaysAnEarlierReservationUnlikeEasy) {
  // Queue: J1 running (6 of 8). J2 (head, 8 nodes). J3 (2 nodes, long).
  // J4 (2 nodes, short). Under EASY, J3 may not backfill (delays J2's
  // reservation) but under conservative J3 also must not start; both
  // should start J4 which finishes before the shadow.
  std::vector<hpcsim::JobSpec> jobs = {
      rigid_job(1, seconds(0.0), 6, hours(2.0)),
      rigid_job(2, minutes(1.0), 8, hours(2.0)),
      rigid_job(3, minutes(2.0), 2, hours(8.0)),
      rigid_job(4, minutes(3.0), 2, hours(1.0)),
  };
  Simulator sim(cfg(8), jobs);
  ConservativeBackfillScheduler sched;
  const auto result = sim.run(sched);
  // J4 backfills immediately; J3 waits until after J2 (its reservation
  // would collide with J2's).
  EXPECT_LT(result.jobs[3].start.hours(), 0.2);
  EXPECT_GE(result.jobs[2].start, result.jobs[1].start);
}

TEST(Conservative, WaitNoWorseThanFcfsOrdering) {
  std::vector<hpcsim::JobSpec> jobs;
  for (int i = 0; i < 25; ++i) {
    jobs.push_back(rigid_job(i + 1, minutes(i * 7.0), 1 + (i * 3) % 6,
                             minutes(45.0 + (i * 11) % 60)));
  }
  Simulator sim_c(cfg(8), jobs);
  ConservativeBackfillScheduler cons;
  const auto rc = sim_c.run(cons);
  Simulator sim_e(cfg(8), jobs);
  EasyBackfillScheduler easy;
  const auto re = sim_e.run(easy);
  EXPECT_EQ(rc.completed_jobs, re.completed_jobs);
  // EASY is at least as aggressive; conservative should be within 2x of
  // its mean wait on this mix (sanity envelope, not a tight bound).
  EXPECT_LE(rc.mean_wait_hours(), re.mean_wait_hours() * 2.0 + 0.5);
}

/// The conservative walk without the suffix-minimum exit: every pending
/// job gets a fit and a reservation, every tick.
class UnprunedConservative final : public hpcsim::SchedulingPolicy {
 public:
  void on_tick(hpcsim::SimulationView& view) override {
    const std::vector<hpcsim::JobId> pending = view.pending_jobs();
    if (pending.empty()) return;
    CapacityProfile profile(view.now(), view.free_nodes());
    for (const auto& release : projected_releases(view)) {
      profile.add_release(release.time, release.nodes);
    }
    for (hpcsim::JobId id : pending) {
      const auto& spec = view.spec(id);
      const int nodes = start_nodes(spec);
      const Duration start = profile.earliest_fit(nodes, spec.walltime);
      if (start <= view.now()) {
        if (view.start(id, nodes)) profile.reserve(view.now(), spec.walltime, nodes);
      } else {
        profile.reserve(start, spec.walltime, nodes);
      }
    }
  }
  [[nodiscard]] std::string name() const override { return "unpruned"; }
};

/// Counts the ticks on which the pruned walk skips work: the whole pass
/// (no pending job fits the free count) or a tail of the queue.
class PruneProbe final : public hpcsim::SchedulingPolicy {
 public:
  explicit PruneProbe(hpcsim::SchedulingPolicy& inner) : inner_(inner) {}
  void on_tick(hpcsim::SimulationView& view) override {
    const auto& pending = view.pending_jobs();
    if (!pending.empty()) {
      int smallest = std::numeric_limits<int>::max();
      for (const hpcsim::JobId id : pending) {
        smallest = std::min(smallest, start_nodes(view.spec(id)));
      }
      const int last = start_nodes(view.spec(pending.back()));
      if (smallest > view.free_nodes()) {
        ++skipped_ticks;
      } else if (last > view.free_nodes()) {
        ++cut_ticks;  // at least the last job's reservation is skipped
      }
    }
    inner_.on_tick(view);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  int skipped_ticks = 0;
  int cut_ticks = 0;

 private:
  hpcsim::SchedulingPolicy& inner_;
};

TEST(Conservative, SuffixMinimumExitStartsWhatTheUnprunedWalkStarts) {
  hpcsim::WorkloadConfig wl;
  wl.job_count = 160;
  wl.span = days(1.0);
  wl.max_job_nodes = 16;
  wl.runtime_mean = hours(3.0);
  const auto jobs = hpcsim::WorkloadGenerator(wl, 7).generate();
  Simulator::Config c = cfg(32);
  c.reference_mode = true;  // every tick calls on_tick: no span shortcuts
  ConservativeBackfillScheduler pruned;
  PruneProbe probe(pruned);
  const auto rp = Simulator(c, jobs).run(probe);
  UnprunedConservative unpruned;
  const auto ru = Simulator(c, jobs).run(unpruned);
  EXPECT_GT(probe.skipped_ticks, 100);
  EXPECT_GT(probe.cut_ticks, 100);
  ASSERT_EQ(rp.jobs.size(), ru.jobs.size());
  for (std::size_t i = 0; i < rp.jobs.size(); ++i) {
    expect_same_bits(rp.jobs[i].start, ru.jobs[i].start, "start");
    expect_same_bits(rp.jobs[i].finish, ru.jobs[i].finish, "finish");
  }
  expect_same_bits(rp.makespan, ru.makespan, "makespan");
}

}  // namespace
}  // namespace greenhpc::sched
