// EXP-PERF — engine gates: digest identities and ratios measured within one run.
//
// Not a paper experiment, and not a timing harness: perfbench/ is the one
// source of timing claims (repeated rounds, spreads, per-layer tables).
// This bench keeps what nothing else checks, and fails on any gate:
//   - dense scale: the in-span engine reproduces the tick-exact reference
//     loop bit for bit, and beats it by >= 2.0x (reps interleaved);
//   - a policy sweep run serially and through the thread pool: identical
//     digests, and the pool path no slower than 0.9x the plain loop;
//   - one sweep grid under EASY and conservative backfill: digests stable
//     across repeats, and conservative costs <= 20x EASY;
//   - with --baseline: the reference hot loop and the dense FCFS in-span
//     run, each divided by a fixed calibration loop's rate measured in
//     the same reps, stay >= baseline / 1.5.
//
// Usage: bench_perf [--json-out FILE] [--baseline FILE]
//   --json-out FILE  write the JSON report there (default BENCH_PERF.json)
//   --baseline FILE  gate the normalized rates against this file
//                    (bench/perf_baseline.json)
//
// The baseline holds the two normalized rates ("*_ticks_per_unit" in the
// JSON report). Rates read as simulated ticks per calibration unit, which
// cancels the host's clock speed; refresh them from the median of several
// runs when the engine legitimately gets faster or slower.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "carbon/forecast.hpp"
#include "core/sweep.hpp"
#include "sched/carbon_aware.hpp"
#include "sched/conservative.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "util/parallel.hpp"

namespace {

using namespace greenhpc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The reference hot loop's scenario: 64 nodes, 220 jobs over 2 days.
core::ScenarioConfig small_config() {
  auto cfg = bench::reference_scenario();
  cfg.cluster.nodes = 64;
  cfg.workload.job_count = 220;
  cfg.workload.span = days(2.0);
  cfg.workload.max_job_nodes = 32;
  cfg.trace_span = days(7.0);
  return cfg;
}

// --- dense scale: completion-bound wave arrivals ---
// Many short jobs on a fine tick, submitted in hourly waves (arrival
// quantum) that mostly fit the machine at once: between waves the pending
// queue is empty, so every finish is a pure node release the policies
// attest over and the span kernel resolves in place. This is the regime
// the in-span completion path targets; it is timed on the fast engine and
// on the tick-exact reference loop (Config::reference_mode), and the
// results must be bit-identical.

core::ScenarioConfig dense_config() {
  auto cfg = bench::reference_scenario();
  cfg.cluster.nodes = 512;
  cfg.cluster.tick = seconds(15.0);
  cfg.workload.job_count = 2000;
  cfg.workload.span = days(1.5);
  cfg.workload.arrival_quantum = minutes(60.0);
  cfg.workload.max_job_nodes = 1;
  cfg.workload.runtime_mean = minutes(300.0);
  cfg.workload.runtime_max = hours(12.0);
  cfg.trace_span = days(4.0);
  return cfg;
}

hpcsim::Simulator::Config sim_config(const core::ScenarioRunner& runner,
                                     bool reference_mode = false) {
  hpcsim::Simulator::Config cfg;
  cfg.cluster = runner.config().cluster;
  cfg.carbon_intensity = runner.trace();
  cfg.reference_mode = reference_mode;
  return cfg;
}

std::unique_ptr<hpcsim::SchedulingPolicy> make_policy(const char* name) {
  if (std::strcmp(name, "fcfs") == 0) return std::make_unique<sched::FcfsScheduler>();
  return std::make_unique<sched::EasyBackfillScheduler>();
}

/// FNV-1a step over the bit pattern of one double.
void mix(std::uint64_t& h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// The headline totals and the per-job finish/energy series: any
/// divergence between two engines or two execution paths shows up here.
void mix_result(std::uint64_t& h, const hpcsim::SimulationResult& r) {
  mix(h, r.total_carbon.grams());
  mix(h, r.total_energy.joules());
  mix(h, r.makespan.seconds());
  for (const auto& j : r.jobs) {
    mix(h, j.finish.seconds());
    mix(h, j.energy.joules());
  }
}

struct DenseSample {
  double wall_s = 1e300;  ///< best rep
  std::size_t ticks = 0;
  std::uint64_t digest = 0;
};

struct DensePair {
  DenseSample reference;
  DenseSample inspan;
};

/// Best of 5 for the reference loop and the in-span engine, reps
/// interleaved so clock drift and allocator state hit both alike.
DensePair time_dense(const core::ScenarioRunner& runner, const char* sched_name) {
  DensePair out;
  for (int rep = 0; rep < 5; ++rep) {
    for (const bool reference_mode : {true, false}) {
      DenseSample& s = reference_mode ? out.reference : out.inspan;
      hpcsim::Simulator sim(sim_config(runner, reference_mode), runner.jobs());
      const auto sched = make_policy(sched_name);
      const auto t0 = Clock::now();
      const auto result = sim.run(*sched);
      s.wall_s = std::min(s.wall_s, seconds_since(t0));
      s.ticks = result.system_power.size();
      s.digest = kFnvBasis;
      mix_result(s.digest, result);
    }
  }
  return out;
}

// --- normalized rate: simulated ticks per calibration unit ---

/// Wall budget per normalized-rate measurement, split into one round per
/// CPU the process may use, each round pinned to its CPU. A fixed
/// constant: on a shared VM one vCPU can run slow for a second or more
/// (one unpinned 1 s measurement read 0.65x), and best-of-reps over
/// rounds on rotating vCPUs steps around it.
constexpr double kRateBudgetS = 1.0;
/// Calibration units per rep: about as long as one reference hot loop.
constexpr int kUnitsPerRep = 4;

/// Fixed unit of arithmetic (a chain of 20k dependent volatile fused
/// ops) that no engine change can speed up: host speed in one number.
double calibration_unit(int i) {
  volatile double x = 1.0 + static_cast<double>(i % 7);
  for (int k = 0; k < 20000; ++k) x = x * 1.0000001 + 1e-9;
  return x;
}

struct NormalizedRate {
  std::size_t ticks = 0;
  double sim_s = 1e300;   ///< best rep
  double unit_s = 1e300;  ///< best rep, per unit
  int reps = 0;
  [[nodiscard]] double ticks_per_s() const { return ticks / sim_s; }
  [[nodiscard]] double units_per_s() const { return 1.0 / unit_s; }
  [[nodiscard]] double ticks_per_unit() const { return ticks_per_s() / units_per_s(); }
};

/// Pins the calling thread to one allowed CPU per round, in turn, and
/// restores its original mask on destruction.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  [[nodiscard]] std::size_t rounds() const {
    return std::max<std::size_t>(1, cpus_.size());
  }
  void pin(std::size_t round) {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[round % cpus_.size()], &set);
    (void)sched_setaffinity(0, sizeof(set), &set);
  }

 private:
  cpu_set_t saved_{};
  std::vector<int> cpus_;
};

/// FCFS on `runner`'s scenario, best of reps over kRateBudgetS, each rep
/// followed by kUnitsPerRep calibration units, so the two rates see the
/// same host state.
NormalizedRate time_normalized(const core::ScenarioRunner& runner) {
  NormalizedRate out;
  const hpcsim::Simulator::Config cfg = sim_config(runner);
  double sink = 0.0;
  CpuRotation rotation;
  std::size_t round = 0;
  rotation.pin(round);
  const auto start = Clock::now();
  while (out.reps == 0 || seconds_since(start) < kRateBudgetS) {
    const auto due = static_cast<std::size_t>(seconds_since(start) / kRateBudgetS *
                                              static_cast<double>(rotation.rounds()));
    if (due > round) rotation.pin(round = due);
    hpcsim::Simulator sim(cfg, runner.jobs());
    sched::FcfsScheduler fcfs;
    auto t0 = Clock::now();
    out.ticks = sim.run(fcfs).system_power.size();
    out.sim_s = std::min(out.sim_s, seconds_since(t0));
    t0 = Clock::now();
    for (int k = 0; k < kUnitsPerRep; ++k) sink += calibration_unit(k);
    out.unit_s = std::min(out.unit_s, seconds_since(t0) / kUnitsPerRep);
    ++out.reps;
  }
  (void)sink;
  return out;
}

// --- serial vs pool sweep ---

std::vector<core::ScenarioRunner::PolicyCase> sweep_cases() {
  std::vector<core::ScenarioRunner::PolicyCase> cases;
  cases.push_back({"fcfs", [] { return std::make_unique<sched::FcfsScheduler>(); }});
  cases.push_back({"easy", [] { return std::make_unique<sched::EasyBackfillScheduler>(); }});
  cases.push_back(
      {"easy+mold", [] { return std::make_unique<sched::EasyBackfillScheduler>(true); }});
  for (int k = 0; k < 3; ++k) {
    cases.push_back({"carbon-easy/" + std::to_string(k), [] {
                       sched::CarbonAwareEasyScheduler::Config c;
                       c.max_hold = hours(24.0);
                       return std::make_unique<sched::CarbonAwareEasyScheduler>(
                           c, std::make_shared<carbon::PersistenceForecaster>());
                     }});
  }
  return cases;
}

std::uint64_t outcome_digest(const std::vector<core::PolicyOutcome>& outcomes) {
  std::uint64_t h = kFnvBasis;
  for (const auto& o : outcomes) {
    mix_result(h, o.result);
    mix(h, static_cast<double>(o.completed));
  }
  return h;
}

// --- backfill cost: conservative vs EASY on one sweep grid ---
// The grid of `greenhpc sweep --regions DE --nodes 128 --jobs 600 --days 3
// --replicas 16 --threads 1`: backlogged enough that conservative
// backfill's capacity profile and per-job reservations do real work.

/// Conservative backfill may cost at most this many times EASY on the
/// backfill grid. It measured about 8x on a 4-vCPU VM with the one-pass
/// capacity profile, about 280x with the quadratic one.
constexpr double kMaxBackfillCostRatio = 20.0;
constexpr int kBackfillRepeats = 3;

core::SweepGrid backfill_grid(const char* policy, core::SchedulerFactory factory) {
  core::SweepGrid grid;
  grid.base.cluster.nodes = 128;
  grid.base.trace_span = days(6.0);
  grid.base.workload.span = days(3.0);
  grid.base.workload.job_count = 600;
  grid.base.workload.max_job_nodes = 32;
  grid.base.seed = 2023;
  grid.regions = {carbon::Region::Germany};
  grid.seed_replicas = 16;
  grid.policies.push_back({policy, std::move(factory), nullptr});
  return grid;
}

struct BackfillSample {
  const char* scheduler;
  double wall_s = 1e300;  ///< best of kBackfillRepeats
  std::uint64_t digest = 0;
  bool stable = true;     ///< same digest on every repeat
};

/// Time the backfill grid under EASY and conservative on a one-thread
/// pool, best of kBackfillRepeats each, the two policies interleaved so
/// clock drift and allocator state hit both alike.
std::vector<BackfillSample> measure_backfill_cost() {
  const core::SweepGrid grids[] = {
      backfill_grid("easy", [] { return std::make_unique<sched::EasyBackfillScheduler>(); }),
      backfill_grid("conservative",
                    [] { return std::make_unique<sched::ConservativeBackfillScheduler>(); }),
  };
  std::vector<BackfillSample> samples = {{"easy"}, {"conservative"}};
  util::ThreadPool pool(1);
  core::SweepEngine::Options opts;
  opts.pool = &pool;
  const core::SweepEngine engine(opts);
  for (int rep = 0; rep < kBackfillRepeats; ++rep) {
    for (std::size_t p = 0; p < samples.size(); ++p) {
      const auto t0 = Clock::now();
      const core::SweepResult result = engine.run(grids[p]);
      samples[p].wall_s = std::min(samples[p].wall_s, seconds_since(t0));
      if (rep > 0 && result.digest != samples[p].digest) samples[p].stable = false;
      samples[p].digest = result.digest;
    }
  }
  return samples;
}

/// Minimal scanner for `"key": <number>` in the baseline JSON — the file
/// is our own flat output, not arbitrary JSON.
bool find_json_number(const std::string& text, const std::string& key, double* out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return false;
  return std::sscanf(text.c_str() + pos + needle.size(), " %lf", out) == 1;
}

/// Print one gate's value against its bound; true when it holds.
bool gate(const char* what, double value, double bound, bool is_floor) {
  const bool ok = is_floor ? value >= bound : value <= bound;
  std::printf("gate %-36s %10.2f  %s %10.2f  %s\n", what, value, is_floor ? ">=" : "<=",
              bound, ok ? "ok" : "FAIL");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_PERF.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_perf [--json-out FILE] [--baseline FILE]\n");
      return 2;
    }
  }
  std::string baseline_text;
  if (!baseline_path.empty()) {
    std::FILE* bf = std::fopen(baseline_path.c_str(), "r");
    if (bf == nullptr) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
      return 2;
    }
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), bf)) > 0) baseline_text.append(buf, n);
    std::fclose(bf);
  }

  // --- dense scale: in-span completions vs the reference loop ---
  const core::ScenarioConfig dense_cfg = dense_config();
  const core::ScenarioRunner dense_runner(dense_cfg);
  util::Table dt({"scheduler", "engine", "ticks", "wall[ms]", "speedup"});
  bool dense_identical = true;
  double dense_min_speedup = 1e300;
  std::string dense_json;
  for (const char* sched_name : {"fcfs", "easy"}) {
    const DensePair p = time_dense(dense_runner, sched_name);
    dense_identical = dense_identical && p.reference.digest == p.inspan.digest;
    const double speedup = p.reference.wall_s / p.inspan.wall_s;
    dense_min_speedup = std::min(dense_min_speedup, speedup);
    dt.add_row({sched_name, "reference", std::to_string(p.reference.ticks),
                util::Table::fmt(1e3 * p.reference.wall_s, 1), "-"});
    dt.add_row({sched_name, "in-span", std::to_string(p.inspan.ticks),
                util::Table::fmt(1e3 * p.inspan.wall_s, 1),
                util::Table::fmt(speedup, 2) + "x"});
    char row[192];
    std::snprintf(row, sizeof(row),
                  "%s\n    {\"scheduler\": \"%s\", \"reference_s\": %.6f, "
                  "\"inspan_s\": %.6f, \"speedup\": %.3f}",
                  dense_json.empty() ? "" : ",", sched_name, p.reference.wall_s,
                  p.inspan.wall_s, speedup);
    dense_json += row;
  }
  std::printf("%s\n",
              dt.str("Dense scale (512 nodes, 2000 single-node jobs, 15 s tick, "
                     "hourly arrival waves)")
                  .c_str());

  // --- serial vs pool sweep ---
  // Best of 5, serial and pool interleaved: at this scale the sweep is
  // milliseconds, so a single-shot (or phase-ordered) timing would gate on
  // allocator state and clock drift rather than on the fan-out path.
  auto sweep_cfg = small_config();
  sweep_cfg.workload.checkpointable_fraction = 0.5;
  const core::ScenarioRunner sweep_runner(sweep_cfg);
  const auto cases = sweep_cases();
  std::uint64_t serial_digest = 0;
  std::uint64_t pool_digest = 0;
  double serial_s = 1e300;
  double pool_s = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = Clock::now();
    std::vector<core::PolicyOutcome> serial;
    serial.reserve(cases.size());
    for (const auto& c : cases) {
      serial.push_back(sweep_runner.run(c.label, c.scheduler, c.power));
    }
    serial_s = std::min(serial_s, seconds_since(t0));
    serial_digest = outcome_digest(serial);
    t0 = Clock::now();
    const std::vector<core::PolicyOutcome> pooled = sweep_runner.run_all(cases);
    pool_s = std::min(pool_s, seconds_since(t0));
    pool_digest = outcome_digest(pooled);
  }
  const std::size_t threads = util::ThreadPool::global().size();
  std::printf("Sweep (%zu cases): serial %.4f s, pool %.4f s on %zu threads%s\n\n",
              cases.size(), serial_s, pool_s, threads,
              threads <= 1 ? " (serial fallback)" : "");

  // --- backfill cost ---
  const std::vector<BackfillSample> backfill = measure_backfill_cost();
  const double backfill_ratio = backfill[1].wall_s / backfill[0].wall_s;
  for (const auto& b : backfill) {
    std::printf("Backfill cost (DE, 128 nodes, 600 jobs, 3 days, 16 replicas): "
                "%-12s best %.3f s of %d, digest %016llx%s\n",
                b.scheduler, b.wall_s, kBackfillRepeats,
                static_cast<unsigned long long>(b.digest),
                b.stable ? "" : " (CHANGED between repeats)");
  }

  // --- normalized rates ---
  const NormalizedRate ref_rate = time_normalized(core::ScenarioRunner(small_config()));
  const NormalizedRate dense_rate = time_normalized(dense_runner);
  for (const auto& [what, r] : {std::pair{"reference hot loop (small/fcfs)", &ref_rate},
                                std::pair{"dense fcfs in-span", &dense_rate}}) {
    std::printf("Normalized rate, %s: %.0f ticks/s / %.0f units/s = %.1f ticks/unit "
                "(best of %d reps)\n",
                what, r->ticks_per_s(), r->units_per_s(), r->ticks_per_unit(), r->reps);
  }
  std::printf("\n");

  // --- JSON report ---
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"threads\": %zu,\n", threads);
  std::fprintf(f,
               "  \"dense\": {\"nodes\": %d, \"jobs\": %d, \"tick_s\": %.0f, "
               "\"bit_identical\": %s, \"min_speedup\": %.3f, \"samples\": [%s\n  ]},\n",
               dense_cfg.cluster.nodes, dense_cfg.workload.job_count,
               dense_cfg.cluster.tick.seconds(), dense_identical ? "true" : "false",
               dense_min_speedup, dense_json.c_str());
  std::fprintf(f,
               "  \"sweep\": {\"cases\": %zu, \"serial_s\": %.6f, \"pool_s\": %.6f, "
               "\"speedup\": %.3f, \"bit_identical\": %s},\n",
               cases.size(), serial_s, pool_s, serial_s / pool_s,
               serial_digest == pool_digest ? "true" : "false");
  std::fprintf(f,
               "  \"backfill\": {\"easy_s\": %.6f, \"conservative_s\": %.6f, "
               "\"ratio\": %.2f, \"easy_digest\": \"%016llx\", "
               "\"conservative_digest\": \"%016llx\", \"stable\": %s},\n",
               backfill[0].wall_s, backfill[1].wall_s, backfill_ratio,
               static_cast<unsigned long long>(backfill[0].digest),
               static_cast<unsigned long long>(backfill[1].digest),
               backfill[0].stable && backfill[1].stable ? "true" : "false");
  std::fprintf(f,
               "  \"reference_ticks_per_unit\": %.1f,\n"
               "  \"dense_fcfs_ticks_per_unit\": %.1f\n}\n",
               ref_rate.ticks_per_unit(), dense_rate.ticks_per_unit());
  std::fclose(f);
  std::printf("wrote %s\n\n", out_path.c_str());

  // --- gates ---
  bool ok = true;
  const auto digest_gate = [&ok](const char* what, bool identical) {
    std::printf("gate %-36s %s\n", what, identical ? "ok" : "FAIL");
    ok = ok && identical;
  };
  digest_gate("dense reference == in-span digest", dense_identical);
  digest_gate("sweep serial == pool digest", serial_digest == pool_digest);
  digest_gate("backfill digests stable", backfill[0].stable && backfill[1].stable);
  // The span kernel must keep paying for itself.
  ok = gate("dense in-span/reference speedup", dense_min_speedup, 2.0, true) && ok;
  // The pool path must never lose to the plain loop: either it wins, or
  // the serial fallback makes it the plain loop (~1.0x). 0.9 rather than
  // 1.0 absorbs timer noise on the millisecond sweep.
  ok = gate("sweep pool/serial speedup", serial_s / pool_s, 0.9, true) && ok;
  ok = gate("backfill conservative/easy cost", backfill_ratio, kMaxBackfillCostRatio,
            false) && ok;
  if (!baseline_text.empty()) {
    for (const auto& [key, r] : {std::pair{"reference_ticks_per_unit", &ref_rate},
                                 std::pair{"dense_fcfs_ticks_per_unit", &dense_rate}}) {
      double base = 0.0;
      if (!find_json_number(baseline_text, key, &base) || base <= 0.0) {
        std::fprintf(stderr, "baseline %s has no %s\n", baseline_path.c_str(), key);
        return 2;
      }
      ok = gate(key, r->ticks_per_unit(), base / 1.5, true) && ok;
    }
  }
  if (!ok) std::fprintf(stderr, "FAIL: a bench_perf gate failed (see above)\n");
  return ok ? 0 : 1;
}
