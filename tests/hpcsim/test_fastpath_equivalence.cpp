// Fast-path / reference-path equivalence property (perf guardrail).
//
// The simulator's hot path (SoA span batch kernel, check-free chunks,
// arrival riding, idle fast-forward, segment-hoisted intensity sampling)
// claims to be bit-identical to the tick-exact reference loop. The golden
// fixture pins four specific runs; this test proves the claim across a
// randomized family of small scenarios: for each sampled (workload,
// scheduler, faults) combination the simulation runs twice — with
// Config::reference_mode forcing the per-tick path, and with every fast
// path enabled (in-span completion kernel included) — and the two
// SimulationResults must match field by field, every double compared by
// bit pattern. The completion-dense "waves" combos (hourly arrival quanta,
// small jobs, short tick) drive thousands of finishes through the in-span
// event tick specifically. Combos with a telemetry sink compare every
// recorded sample (the span's per-tick output path); combos with a
// degraded intensity feed observe the feed inside spans. Conservative
// backfill runs the full clean/faults x dense/sparse/waves x plain/
// telemetry/feed cross product; under periodic checkpointing its jobs
// also overrun their walltime estimates, which drives its span horizon
// down to `now` (the overrun fence). The overrun-crossing slice draws
// EASY and conservative scenarios in which an overrunning job's sliding
// release reaches another job's fixed projected end within one tick, the
// one case where the fence changes a decision.
//
// Both engines share the per-job step, so bit-identity alone no longer
// checks the integration formula independently: each run is also checked
// for energy and carbon conservation (the jobs' energy plus the idle
// floor's adds up to the cluster total).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "carbon/forecast.hpp"
#include "core/scenario.hpp"
#include "hpcsim/simulator.hpp"
#include "resilience/checkpoint_policy.hpp"
#include "resilience/degraded_feed.hpp"
#include "sched/carbon_aware.hpp"
#include "sched/conservative.hpp"
#include "sched/decorators.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "telemetry/sensor_store.hpp"
#include "testing/helpers.hpp"

namespace greenhpc {
namespace {

/// Bit-pattern equality: catches last-bit drift that value comparison
/// (or -0.0 == 0.0) would miss.
::testing::AssertionResult same_bits(const char* expr_a, const char* expr_b,
                                     double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << expr_a << " and " << expr_b << " differ: " << a << " vs " << b
         << " (bits 0x" << std::hex << ba << " vs 0x" << bb << ")";
}
#define EXPECT_SAME_BITS(a, b) EXPECT_PRED_FORMAT2(same_bits, (a), (b))

void expect_same_series(const util::TimeSeries& ref, const util::TimeSeries& fast,
                        const char* what) {
  ASSERT_EQ(ref.size(), fast.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_SAME_BITS(ref.values()[i], fast.values()[i])
        << what << " sample " << i;
    if (::testing::Test::HasFailure()) return;  // one divergence is enough
  }
}

void expect_equivalent(const hpcsim::SimulationResult& ref,
                       const hpcsim::SimulationResult& fast) {
  EXPECT_SAME_BITS(ref.makespan.seconds(), fast.makespan.seconds());
  EXPECT_SAME_BITS(ref.total_energy.joules(), fast.total_energy.joules());
  EXPECT_SAME_BITS(ref.total_carbon.grams(), fast.total_carbon.grams());
  EXPECT_SAME_BITS(ref.idle_energy.joules(), fast.idle_energy.joules());
  EXPECT_SAME_BITS(ref.idle_carbon.grams(), fast.idle_carbon.grams());
  EXPECT_EQ(ref.completed_jobs, fast.completed_jobs);
  EXPECT_EQ(ref.walltime_kills, fast.walltime_kills);
  EXPECT_EQ(ref.budget_violations, fast.budget_violations);
  EXPECT_EQ(ref.node_failures, fast.node_failures);
  EXPECT_EQ(ref.job_failures, fast.job_failures);
  EXPECT_EQ(ref.jobs_failed, fast.jobs_failed);
  EXPECT_EQ(ref.checkpoints_taken, fast.checkpoints_taken);
  EXPECT_SAME_BITS(ref.lost_node_seconds, fast.lost_node_seconds);
  EXPECT_SAME_BITS(ref.checkpoint_node_seconds, fast.checkpoint_node_seconds);
  EXPECT_SAME_BITS(ref.wasted_energy.joules(), fast.wasted_energy.joules());
  EXPECT_SAME_BITS(ref.wasted_carbon.grams(), fast.wasted_carbon.grams());

  ASSERT_EQ(ref.jobs.size(), fast.jobs.size());
  for (std::size_t i = 0; i < ref.jobs.size(); ++i) {
    const auto& rj = ref.jobs[i];
    const auto& fj = fast.jobs[i];
    ASSERT_EQ(rj.spec.id, fj.spec.id);
    EXPECT_EQ(rj.completed, fj.completed) << "job " << rj.spec.id;
    EXPECT_EQ(rj.killed, fj.killed) << "job " << rj.spec.id;
    EXPECT_EQ(rj.failed, fj.failed) << "job " << rj.spec.id;
    EXPECT_EQ(rj.suspend_count, fj.suspend_count) << "job " << rj.spec.id;
    EXPECT_EQ(rj.checkpoint_count, fj.checkpoint_count) << "job " << rj.spec.id;
    EXPECT_EQ(rj.failure_count, fj.failure_count) << "job " << rj.spec.id;
    EXPECT_SAME_BITS(rj.start.seconds(), fj.start.seconds())
        << "job " << rj.spec.id;
    EXPECT_SAME_BITS(rj.finish.seconds(), fj.finish.seconds())
        << "job " << rj.spec.id;
    EXPECT_SAME_BITS(rj.energy.joules(), fj.energy.joules())
        << "job " << rj.spec.id;
    EXPECT_SAME_BITS(rj.carbon.grams(), fj.carbon.grams())
        << "job " << rj.spec.id;
    if (::testing::Test::HasFailure()) return;
  }

  // The per-tick series pin tick alignment: the fast paths must neither
  // drop, duplicate nor perturb a single sample.
  expect_same_series(ref.system_power, fast.system_power, "system_power");
  expect_same_series(ref.power_budget, fast.power_budget, "power_budget");
  expect_same_series(ref.carbon_intensity, fast.carbon_intensity,
                     "carbon_intensity");
  expect_same_series(ref.busy_nodes, fast.busy_nodes, "busy_nodes");
}

struct Combo {
  // fcfs | easy | carbon-easy | conservative | ckpt-dec, or any of the
  // first four with "+ydckpt" (wrapped in periodic checkpointing)
  const char* scheduler;
  std::uint64_t seed;
  int nodes;
  int jobs;
  double span_days;  // dense (short) vs sparse (long, exercises idle-ff)
  bool faults;
  // Completion-dense regime: hourly arrival waves of small short jobs at
  // a fine tick, so spans resolve many finishes via the in-span event
  // tick (releases, record emission, survivor compaction) rather than
  // integrating quietly to the horizon.
  bool waves = false;
  // Record system telemetry into a SensorStore (disables the check-free
  // chunks: every span tick takes the per-tick output path).
  bool telemetry = false;
  // Observe intensity through a DegradedFeed with outages (policies see
  // held values and a growing staleness clock; spans sample per tick).
  bool feed = false;
  // Require some job to run past its walltime estimate (checkpoint
  // overhead on a job whose estimate equals its runtime), so the
  // backfill policies' overrun fence runs; the OverrunFence tests below
  // build the rarer case where it changes a result.
  bool overrun = false;
  // Draw overrun crossings: checkpointable jobs get their bare runtime as
  // the walltime estimate and checkpoint in place every 30 minutes, so the
  // checkpoint overhead runs them past the estimate while other jobs hold
  // fixed projected ends. The reference run must see a tick at which an
  // overrunning job's sliding release (now + tick) reaches another job's
  // fixed projected end; only the policy's overrun fence stops a span from
  // integrating past that tick.
  bool crossings = false;
};

/// Readable test parameter (gtest would otherwise print raw bytes,
/// including the scheduler pointer and padding, into the test names).
void PrintTo(const Combo& c, std::ostream* os) {
  *os << c.scheduler << " seed=" << c.seed << " nodes=" << c.nodes
      << " jobs=" << c.jobs << " days=" << c.span_days << " faults=" << c.faults
      << " waves=" << c.waves << " telemetry=" << c.telemetry
      << " feed=" << c.feed;
  if (c.overrun) *os << " overrun=1";
  if (c.crossings) *os << " crossings=1";
}

/// Both engines' telemetry stores must hold the same sensors with the
/// same samples, times and values compared by bit pattern.
void expect_same_telemetry(const telemetry::SensorStore& ref,
                           const telemetry::SensorStore& fast) {
  ASSERT_EQ(ref.names(), fast.names());
  for (const std::string& name : ref.names()) {
    const auto& rs = ref.find(name)->samples();
    const auto& fs = fast.find(name)->samples();
    ASSERT_EQ(rs.size(), fs.size()) << name;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      EXPECT_SAME_BITS(rs[i].time.seconds(), fs[i].time.seconds())
          << name << " sample " << i;
      EXPECT_SAME_BITS(rs[i].value, fs[i].value) << name << " sample " << i;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

/// Σ job energy + idle energy == total energy (and the same for carbon),
/// to a relative 1e-9: the accumulation orders differ, the sums must not.
void expect_conserved(const hpcsim::SimulationResult& r, const char* engine) {
  double job_energy_j = 0.0;
  double job_carbon_g = 0.0;
  for (const auto& j : r.jobs) {
    job_energy_j += j.energy.joules();
    job_carbon_g += j.carbon.grams();
  }
  const double total_j = r.total_energy.joules();
  const double total_g = r.total_carbon.grams();
  EXPECT_GT(total_j, 0.0) << engine;
  EXPECT_LE(std::abs(job_energy_j + r.idle_energy.joules() - total_j),
            1e-9 * total_j)
      << engine << ": energy not conserved";
  EXPECT_LE(std::abs(job_carbon_g + r.idle_carbon.grams() - total_g),
            1e-9 * total_g)
      << engine << ": carbon not conserved";
}

std::unique_ptr<hpcsim::SchedulingPolicy> make_scheduler(const std::string& name) {
  if (name == "fcfs") return std::make_unique<sched::FcfsScheduler>();
  if (name == "easy") return std::make_unique<sched::EasyBackfillScheduler>();
  if (name == "conservative") return std::make_unique<sched::ConservativeBackfillScheduler>();
  if (name == "carbon-easy") {
    sched::CarbonAwareEasyScheduler::Config cc;
    cc.max_hold = hours(6.0);
    cc.lookahead = hours(6.0);
    return std::make_unique<sched::CarbonAwareEasyScheduler>(
        cc, std::make_shared<carbon::PersistenceForecaster>());
  }
  if (name == "ckpt-dec") {
    sched::CheckpointDecorator::Config dc;
    return std::make_unique<sched::CheckpointDecorator>(
        dc, std::make_unique<sched::EasyBackfillScheduler>());
  }
  GREENHPC_REQUIRE(false, "unknown scheduler in equivalence combo");
  return nullptr;
}

/// Counts the ticks at which some running job has overrun its walltime
/// estimate while another job's fixed projected end falls within the
/// next tick, then lets the wrapped policy act. Reference runs only: it
/// forwards no span attestation.
class CrossingProbe final : public hpcsim::SchedulingPolicy {
 public:
  explicit CrossingProbe(hpcsim::SchedulingPolicy& inner) : inner_(inner) {}
  void on_tick(hpcsim::SimulationView& view) override {
    const hpcsim::JobTable& t = view.job_table();
    const Duration now = view.now();
    bool overrun = false;
    bool end_next_tick = false;
    for (const hpcsim::JobId id : view.running_jobs()) {
      const std::size_t i = view.slot_of(id);
      const Duration end = seconds(t.start_s[i]) + seconds(t.walltime_s[i]);
      overrun = overrun || end <= now;
      end_next_tick = end_next_tick || (end > now && end <= now + view.cluster().tick);
    }
    if (overrun && end_next_tick && !view.pending_jobs().empty()) ++crossings;
    inner_.on_tick(view);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  int crossings = 0;

 private:
  hpcsim::SchedulingPolicy& inner_;
};

hpcsim::SimulationResult run_once(const Combo& combo, bool reference_mode,
                                  telemetry::SensorStore* store,
                                  int* crossings = nullptr) {
  core::ScenarioConfig sc;
  sc.cluster.nodes = combo.nodes;
  sc.cluster.node_tdp = watts(500.0);
  sc.cluster.node_idle = watts(110.0);
  sc.cluster.tick = combo.waves ? seconds(30.0) : minutes(2.0);
  sc.region = carbon::Region::Germany;
  sc.trace_span = days(combo.span_days + 4.0);
  sc.trace_step = minutes(15.0);
  sc.workload.job_count = combo.jobs;
  sc.workload.span = days(combo.span_days);
  sc.workload.max_job_nodes = combo.waves ? 2 : combo.nodes / 2;
  sc.workload.runtime_mean = hours(2.0);
  sc.workload.node_power_mean = watts(420.0);
  sc.workload.node_power_limit = watts(500.0);
  sc.workload.checkpointable_fraction = 0.5;
  sc.workload.moldable_fraction = 0.2;
  if (combo.waves) sc.workload.arrival_quantum = hours(1.0);
  sc.seed = combo.seed;
  const core::ScenarioRunner runner(sc);

  hpcsim::Simulator::Config cfg;
  cfg.cluster = runner.config().cluster;
  cfg.carbon_intensity = runner.trace();
  cfg.reference_mode = reference_mode;
  cfg.telemetry = store;
  std::optional<resilience::DegradedFeed> feed;
  if (combo.feed) {
    resilience::DegradedFeedConfig fc;
    fc.outage_fraction = 0.3;
    fc.mean_outage = hours(1.0);
    fc.seed = combo.seed;
    feed.emplace(fc, sc.trace_span);
    cfg.feed = &*feed;
  }
  if (combo.faults) {
    for (int k = 0; k < 10; ++k) {
      cfg.faults.events.push_back(
          {hours(2.0 + 5.0 * k), 1 + (k % 2), minutes(90.0)});
    }
    cfg.faults.max_retries = 4;
    cfg.faults.backoff_base = minutes(5.0);
    cfg.faults.victim_seed = combo.seed ^ 0x5eedu;
  }

  std::vector<hpcsim::JobSpec> jobs = runner.jobs();
  if (combo.crossings) {
    for (hpcsim::JobSpec& j : jobs) {
      if (j.checkpointable) j.walltime = j.runtime;
    }
  }

  std::unique_ptr<hpcsim::SchedulingPolicy> sched;
  std::unique_ptr<hpcsim::SchedulingPolicy> inner;
  const std::string name = combo.scheduler;
  const std::string ydckpt = "+ydckpt";
  if (name.ends_with(ydckpt)) {
    inner = make_scheduler(name.substr(0, name.size() - ydckpt.size()));
    resilience::CheckpointPolicyConfig cp;
    cp.node_mtbf = hours(400.0);
    if (combo.crossings) cp.fixed_interval = minutes(30.0);
    sched = std::make_unique<resilience::PeriodicCheckpointPolicy>(*inner, cp);
  } else {
    sched = make_scheduler(combo.scheduler);
  }

  hpcsim::Simulator sim(cfg, std::move(jobs));
  if (crossings == nullptr) return sim.run(*sched);
  CrossingProbe probe(*sched);
  auto result = sim.run(probe);
  *crossings = probe.crossings;
  return result;
}

class FastPathEquivalence : public ::testing::TestWithParam<Combo> {};

TEST_P(FastPathEquivalence, ReferenceAndFastPathsMatchBitForBit) {
  const Combo& combo = GetParam();
  telemetry::SensorStore ref_store;
  telemetry::SensorStore fast_store;
  int crossings = 0;
  const auto ref = run_once(combo, /*reference_mode=*/true,
                            combo.telemetry ? &ref_store : nullptr,
                            combo.crossings ? &crossings : nullptr);
  const auto fast = run_once(combo, /*reference_mode=*/false,
                             combo.telemetry ? &fast_store : nullptr);
  EXPECT_GT(ref.completed_jobs, 0);
  expect_conserved(ref, "reference");
  expect_conserved(fast, "fast");
  expect_equivalent(ref, fast);
  if (::testing::Test::HasFailure()) return;
  if (combo.overrun) {
    bool overran = false;
    for (const auto& j : ref.jobs) {
      overran = overran || j.finish - j.start > j.spec.walltime;
    }
    EXPECT_TRUE(overran) << "no job ran past its walltime estimate";
  }
  if (combo.crossings) {
    EXPECT_GT(crossings, 0) << "no overrun release reached a fixed projected end";
  }
  if (combo.telemetry) {
    EXPECT_GT(ref_store.size(), 0u);
    expect_same_telemetry(ref_store, fast_store);
  }
}

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  std::string s = info.param.scheduler;
  for (char& c : s) {
    if (c == '-' || c == '+') c = '_';
  }
  s += info.param.faults ? "_faults" : "_clean";
  s += info.param.waves ? "_waves"
                        : (info.param.span_days < 1.0 ? "_dense" : "_sparse");
  if (info.param.telemetry) s += "_telemetry";
  if (info.param.feed) s += "_feed";
  s += "_s" + std::to_string(info.param.seed);
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, FastPathEquivalence,
    ::testing::Values(
        // Dense arrivals: spans ride over arrivals (FCFS) or break on them.
        Combo{"fcfs", 11, 32, 90, 0.5, false},
        Combo{"fcfs", 12, 48, 140, 0.5, true},
        Combo{"easy", 21, 32, 90, 0.5, false},
        Combo{"easy", 22, 48, 140, 0.5, true},
        Combo{"carbon-easy", 31, 32, 90, 0.5, false},
        Combo{"carbon-easy", 32, 48, 120, 0.5, true},
        // Sparse arrivals: idle gaps exercise fast-forward + span restarts.
        Combo{"fcfs", 41, 16, 30, 4.0, false},
        Combo{"easy", 42, 16, 30, 4.0, true},
        Combo{"carbon-easy", 43, 16, 30, 4.0, false},
        // Checkpoint layers bound the span horizon from the policy side.
        Combo{"easy+ydckpt", 51, 32, 80, 0.5, false},
        Combo{"easy+ydckpt", 52, 16, 40, 4.0, true},
        Combo{"ckpt-dec", 61, 32, 80, 0.5, false},
        // Completion-dense waves: hourly arrival quanta of small short
        // jobs at a 30 s tick — spans resolve runs of finishes through
        // the in-span event tick (release + quiescent_over_release
        // attestation + arrival-riding re-ask on every release).
        Combo{"fcfs", 71, 64, 260, 0.5, false, true},
        Combo{"easy", 72, 64, 260, 0.5, true, true},
        Combo{"carbon-easy", 73, 48, 200, 0.5, false, true},
        Combo{"easy+ydckpt", 74, 48, 180, 0.5, false, true},
        // Per-tick output and observed intensity inside spans: telemetry
        // records every span tick (no check-free chunks), a degraded feed
        // makes spans observe per tick through outages.
        Combo{"fcfs", 81, 64, 260, 0.5, false, true, true, false},
        Combo{"easy", 82, 64, 260, 0.5, false, true, false, true},
        Combo{"carbon-easy", 83, 32, 90, 0.5, true, false, true, true}),
    combo_name);

// A job running past its walltime estimate is projected to release one
// tick from now, so its release slides with the clock. In these two
// scenarios in-place checkpoints push O past its estimate (60 min), and
// its sliding release reaches R's fixed projected end one tick before R
// ends, which opens a window for B at that tick. Nothing discrete happens
// there; only the overrun fence (a span horizon of `now`) keeps the fast
// path from integrating past it. Returns B's start (in minutes) under the
// reference loop and the fast path.
std::pair<double, double> overrun_scenario(const std::string& scheduler, int nodes,
                                           int r_nodes, Duration r_end) {
  using testing::rigid_job;
  hpcsim::JobSpec overrun = rigid_job(1, seconds(0.0), 1, minutes(60.0));
  overrun.walltime = overrun.runtime;
  overrun.checkpointable = true;
  overrun.checkpoint_overhead = minutes(10.0);
  hpcsim::JobSpec fixed = rigid_job(2, seconds(0.0), r_nodes, r_end);
  fixed.walltime = fixed.runtime;
  const std::vector<hpcsim::JobSpec> jobs = {
      overrun, fixed,
      rigid_job(3, minutes(62.0), 2, hours(5.0)),    // A: waits for two nodes
      rigid_job(4, minutes(62.0), 1, minutes(2.0)),  // B: a 3-minute walltime
  };
  double start_min[2] = {};
  for (const bool reference : {true, false}) {
    hpcsim::Simulator::Config cfg;
    cfg.cluster = testing::small_cluster(nodes);
    cfg.carbon_intensity = testing::constant_trace(200.0, days(2.0));
    cfg.reference_mode = reference;
    const auto inner = make_scheduler(scheduler);
    resilience::CheckpointPolicyConfig cp;
    cp.fixed_interval = minutes(30.0);
    resilience::PeriodicCheckpointPolicy policy(*inner, cp);
    const auto r = hpcsim::Simulator(cfg, jobs).run(policy);
    EXPECT_GT(r.jobs[0].finish, r_end) << "O must outlive R's projected end";
    start_min[reference ? 0 : 1] = r.jobs[3].start.minutes();
  }
  return {start_min[0], start_min[1]};
}

// Conservative: R (1 node) ends at 75 min. At 74 min O's release lands on
// it, A's reservation moves onto 75 min and B fits [74, 77).
TEST(OverrunFence, ConservativeReleaseSlidesOntoAFixedEnd) {
  const auto [reference, fast] = overrun_scenario("conservative", 3, 1, minutes(75.0));
  EXPECT_EQ(reference, 74.0);
  EXPECT_EQ(fast, 74.0);
}

// EASY: R (2 nodes) ends at 74.5 min. At 74 min O's release (75 min) sorts
// after R's, so A's shadow moves to 74.5 min with one spare node: B
// backfills into it.
TEST(OverrunFence, EasyReleaseSlidesPastAFixedEnd) {
  const auto [reference, fast] = overrun_scenario("easy", 4, 2, minutes(74.5));
  EXPECT_EQ(reference, 74.0);
  EXPECT_EQ(fast, 74.0);
}

/// Conservative backfill over clean/faults x dense/sparse/waves x
/// plain/telemetry/feed, two seeds each, plus overrun combos.
std::vector<Combo> conservative_combos() {
  std::vector<Combo> combos;
  std::uint64_t seed = 101;
  for (int rep = 0; rep < 2; ++rep) {
    for (const bool faults : {false, true}) {
      for (int obs = 0; obs < 3; ++obs) {
        const bool telemetry = obs == 1;
        const bool feed = obs == 2;
        combos.push_back({"conservative", seed++, rep == 0 ? 32 : 48, rep == 0 ? 90 : 140,
                          0.5, faults, false, telemetry, feed});
        combos.push_back({"conservative", seed++, 16, 30, 4.0, faults, false, telemetry, feed});
        combos.push_back({"conservative", seed++, 64, 260, 0.5, faults, true, telemetry, feed});
      }
    }
  }
  combos.push_back({"conservative+ydckpt", 141, 32, 90, 0.5, false, false, false, false, true});
  combos.push_back({"conservative+ydckpt", 142, 16, 40, 4.0, true, false, false, false, true});
  return combos;
}

INSTANTIATE_TEST_SUITE_P(Conservative, FastPathEquivalence,
                         ::testing::ValuesIn(conservative_combos()), combo_name);

/// EASY and conservative under tight estimates and in-place checkpoints,
/// dense arrivals (overlapping jobs make crossings common), clean and
/// faulted, four seeds each.
std::vector<Combo> crossing_combos() {
  std::vector<Combo> combos;
  std::uint64_t seed = 201;
  for (const char* policy : {"easy+ydckpt", "conservative+ydckpt"}) {
    for (int rep = 0; rep < 4; ++rep) {
      for (const bool faults : {false, true}) {
        Combo c{policy, seed++, rep % 2 == 0 ? 32 : 48, rep % 2 == 0 ? 110 : 160, 0.5, faults};
        c.crossings = true;
        combos.push_back(c);
      }
    }
  }
  return combos;
}

INSTANTIATE_TEST_SUITE_P(OverrunCrossings, FastPathEquivalence,
                         ::testing::ValuesIn(crossing_combos()), combo_name);

}  // namespace
}  // namespace greenhpc
