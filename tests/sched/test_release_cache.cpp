// ReleaseCache against projected_releases(), and the discrete-epoch
// contract it keys on.
//
// The cache hands out its last schedule while the view's discrete epoch
// is unchanged and the clock has not reached the earliest projected end.
// A probe policy asks a long-lived cache at every on_tick, before and
// after the wrapped policy acts, and compares the answer element by
// element with a fresh projected_releases(). The scenarios drive every
// way the schedule can change: starts, completions, walltime overruns
// (estimates below the real runtime, so projected releases slide with the
// clock), malleable reshapes under a moving power budget, and node
// failures with requeues.

#include "sched/easy_backfill.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "hpcsim/simulator.hpp"
#include "hpcsim/workload.hpp"
#include "obs/metrics.hpp"
#include "sched/conservative.hpp"
#include "sched/decorators.hpp"
#include "testing/helpers.hpp"

namespace greenhpc::sched {
namespace {

using greenhpc::testing::constant_trace;
using greenhpc::testing::rigid_job;
using greenhpc::testing::small_cluster;

/// Checks a ReleaseCache held across ticks (and across runs) against
/// projected_releases() around every on_tick of the wrapped policy.
class CacheProbe final : public hpcsim::SchedulingPolicy {
 public:
  explicit CacheProbe(hpcsim::SchedulingPolicy& inner) : inner_(inner) {}
  void on_tick(hpcsim::SimulationView& view) override {
    check(view);
    inner_.on_tick(view);
    check(view);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  int checks = 0;
  int overrun_checks = 0;  ///< checks with a running job past its estimate
  std::set<std::uint64_t> epochs;

 private:
  void check(const hpcsim::SimulationView& view) {
    ++checks;
    epochs.insert(view.discrete_epoch());
    const hpcsim::JobTable& t = view.job_table();
    for (const hpcsim::JobId id : view.running_jobs()) {
      const std::size_t i = view.slot_of(id);
      if (seconds(t.start_s[i]) + seconds(t.walltime_s[i]) <= view.now()) {
        ++overrun_checks;
        break;
      }
    }
    const std::vector<ReleaseEvent>& got = cache_.get(view);
    const std::vector<ReleaseEvent> want = projected_releases(view);
    ASSERT_EQ(got.size(), want.size()) << "at t=" << view.now().minutes() << " min";
    for (std::size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(std::memcmp(&got[k].time, &want[k].time, sizeof(Duration)), 0)
          << "release " << k << " at t=" << view.now().minutes() << " min: "
          << got[k].time.minutes() << " vs " << want[k].time.minutes();
      ASSERT_EQ(got[k].nodes, want[k].nodes)
          << "release " << k << " at t=" << view.now().minutes() << " min";
    }
  }

  hpcsim::SchedulingPolicy& inner_;
  ReleaseCache cache_;
};

/// Full power for three hours, then 55% for three: malleable jobs shrink
/// and grow with it.
class SteppedBudget final : public hpcsim::PowerBudgetPolicy {
 public:
  [[nodiscard]] Power system_budget(Duration now, double,
                                    const hpcsim::ClusterConfig& cluster) override {
    const bool low = static_cast<long long>(now.hours() / 3.0) % 2 == 1;
    return cluster.max_power() * (low ? 0.55 : 1.0);
  }
  [[nodiscard]] std::string name() const override { return "stepped"; }
};

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

struct ProbeRun {
  hpcsim::SimulationResult result;
  int checks = 0;
  int overrun_checks = 0;
  std::uint64_t reshapes = 0;
};

ProbeRun run_probe(hpcsim::SchedulingPolicy& inner, std::uint64_t seed) {
  hpcsim::WorkloadConfig wl;
  wl.job_count = 140;
  wl.span = days(1.5);
  wl.max_job_nodes = 12;
  wl.runtime_mean = hours(2.0);
  wl.malleable_fraction = 0.3;
  wl.moldable_fraction = 0.1;
  wl.checkpointable_fraction = 0.4;
  std::vector<hpcsim::JobSpec> jobs = hpcsim::WorkloadGenerator(wl, seed).generate();
  // Every third job's estimate is its bare runtime: a power cap, a
  // checkpoint or a suspension makes it run past the estimate (walltime
  // enforcement is off), and its projected release slides.
  for (std::size_t k = 0; k < jobs.size(); k += 3) jobs[k].walltime = jobs[k].runtime;

  hpcsim::Simulator::Config cfg;
  cfg.cluster = small_cluster(32);
  cfg.cluster.tick = minutes(2.0);
  cfg.carbon_intensity = constant_trace(250.0, days(4.0));
  for (int k = 0; k < 8; ++k) {
    cfg.faults.events.push_back({hours(1.0 + 4.0 * k), 1 + (k % 3), minutes(60.0)});
  }
  cfg.faults.max_retries = 4;
  cfg.faults.backoff_base = minutes(4.0);
  cfg.faults.victim_seed = seed;

  CacheProbe probe(inner);
  SteppedBudget budget;
  const std::uint64_t reshapes_before = counter("sim.reshapes");
  ProbeRun run;
  run.result = hpcsim::Simulator(cfg, jobs).run(probe, &budget);
  run.checks = probe.checks;
  run.overrun_checks = probe.overrun_checks;
  run.reshapes = counter("sim.reshapes") - reshapes_before;
  return run;
}

TEST(ReleaseCache, MatchesProjectedReleasesUnderMalleableEasy) {
  MalleableDecorator policy({}, std::make_unique<EasyBackfillScheduler>());
  const ProbeRun run = run_probe(policy, 7);
  EXPECT_GT(run.result.completed_jobs, 100);
  EXPECT_GT(run.result.node_failures, 0);
  EXPECT_GT(run.result.job_failures, 0);
  EXPECT_GT(run.reshapes, 0u);
  EXPECT_GT(run.overrun_checks, 100);
  EXPECT_GT(run.checks, 1000);
}

TEST(ReleaseCache, MatchesProjectedReleasesUnderConservative) {
  ConservativeBackfillScheduler policy;
  const ProbeRun run = run_probe(policy, 8);
  EXPECT_GT(run.result.completed_jobs, 100);
  EXPECT_GT(run.result.node_failures, 0);
  EXPECT_GT(run.overrun_checks, 100);
}

// J1 runs on 2 of 4 nodes, J2 needs all 4, so EASY reserves for J2 at J1's
// projected end and asks its ReleaseCache. J3 (2 nodes, 75 min estimate)
// backfills only when that end lies at 75 min or later. Run A (J1's
// estimate 60 min, cut after 10 min) leaves the policy's cache holding A's
// schedule; run B (estimate 90 min) reaches its first reservation at the
// same number of discrete mutations. Reusing the policy for B must start
// J3 at 0, exactly as a fresh policy does.
TEST(ReleaseCache, PolicyReusedOnASecondSimulatorNeverSeesTheFirstRun) {
  auto jobs = [](Duration j1_walltime) {
    hpcsim::JobSpec j1 = rigid_job(1, seconds(0.0), 2, minutes(60.0));
    j1.walltime = j1_walltime;
    hpcsim::JobSpec j3 = rigid_job(3, seconds(0.0), 2, minutes(60.0));
    j3.walltime = minutes(75.0);
    return std::vector<hpcsim::JobSpec>{j1, rigid_job(2, seconds(0.0), 4, minutes(30.0)),
                                        j3};
  };
  auto config = [](Duration max_time) {
    hpcsim::Simulator::Config cfg;
    cfg.cluster = small_cluster(4);
    cfg.carbon_intensity = constant_trace(200.0, days(1.0));
    cfg.max_time = max_time;
    return cfg;
  };

  EasyBackfillScheduler reused;
  CacheProbe probe_a(reused);
  hpcsim::Simulator sim_a(config(minutes(10.0)), jobs(minutes(60.0)));
  const auto ra = sim_a.run(probe_a);
  EXPECT_EQ(ra.jobs[2].completed, false);  // A never backfilled J3

  CacheProbe probe_b(reused);
  hpcsim::Simulator sim_b(config(days(1.0)), jobs(minutes(90.0)));
  const auto rb = sim_b.run(probe_b);
  EasyBackfillScheduler fresh;
  const auto rf = hpcsim::Simulator(config(days(1.0)), jobs(minutes(90.0))).run(fresh);
  ASSERT_EQ(rb.jobs.size(), rf.jobs.size());
  for (std::size_t i = 0; i < rb.jobs.size(); ++i) {
    EXPECT_EQ(rb.jobs[i].start.seconds(), rf.jobs[i].start.seconds())
        << "job " << rb.jobs[i].spec.id;
  }
  EXPECT_EQ(rf.jobs[2].start.seconds(), 0.0);  // fresh EASY backfills J3 at once

  // The two runs never showed the same epoch.
  for (const std::uint64_t e : probe_b.epochs) {
    EXPECT_EQ(probe_a.epochs.count(e), 0u) << "epoch " << e << " seen by both runs";
  }
}

}  // namespace
}  // namespace greenhpc::sched
