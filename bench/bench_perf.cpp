// EXP-PERF — simulator hot-path throughput and sweep scaling.
//
// Not a paper experiment: this bench tracks the engine itself, so the
// operational experiments (which run hundreds of simulations per sweep)
// stay cheap enough to iterate on. Three workloads of increasing size are
// timed through the FCFS and EASY hot loops (ticks/s, jobs/s), and one
// policy sweep is run serially and through the thread pool to measure
// sweep scaling and to assert that parallel fan-out reproduces the serial
// results bit for bit. A final pass re-runs the reference hot loop with
// the event tracer enabled and reports the overhead ratio plus a
// span-derived phase breakdown ("tracing" block in the JSON). Last, one
// sweep grid is timed under EASY and under conservative backfill, so the
// cost of the more expensive policy is a ratio taken within the run
// ("backfill" block).
//
// Usage: bench_perf [--smoke] [--json-out FILE] [--baseline FILE]
//                   [--before FILE]
//   --smoke      smallest scale only (CI perf gate)
//   --json-out FILE  write the JSON report there (default BENCH_PERF.json;
//                    --out is accepted as an alias)
//   --baseline   compare against a committed baseline JSON; exit nonzero
//                on a >2x ticks/s regression of the reference hot loop or
//                when a within-run ratio gate fails
//   --before     merge pre-optimization measurements (keys like
//                "small_fcfs_ticks_per_s", see bench/perf_seed_reference.json)
//                into the report as per-sample "speedup_vs_before" ratios
//
// The committed baseline lives at bench/perf_baseline.json; regenerate it
// with `bench_perf --smoke --out bench/perf_baseline.json` on an idle
// machine when the engine legitimately gets faster or slower.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "carbon/forecast.hpp"
#include "core/sweep.hpp"
#include "obs/trace.hpp"
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

struct ScaleSpec {
  const char* name;
  int nodes;
  int jobs;
  double span_days;
};

constexpr ScaleSpec kScales[] = {
    {"small", 64, 220, 2.0},
    {"medium", 256, 900, 7.0},
    {"large", 512, 2200, 14.0},
    // Mostly-idle campaign: long gaps between arrivals, the shape the
    // idle fast-forward path is built for (capability systems between
    // campaigns, federated sites off the dispatch favorites list).
    {"sparse", 64, 48, 21.0},
};

struct HotLoopSample {
  std::string scale;
  std::string scheduler;
  std::size_t ticks = 0;
  std::size_t jobs = 0;
  double wall_s = 0.0;
  [[nodiscard]] double ticks_per_s() const { return ticks / wall_s; }
  [[nodiscard]] double jobs_per_s() const { return static_cast<double>(jobs) / wall_s; }
};

core::ScenarioConfig scale_config(const ScaleSpec& s) {
  auto cfg = bench::reference_scenario();
  cfg.cluster.nodes = s.nodes;
  cfg.workload.job_count = s.jobs;
  cfg.workload.span = days(s.span_days);
  cfg.workload.max_job_nodes = std::max(4, s.nodes / 2);
  cfg.trace_span = days(s.span_days + 5.0);
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

struct DenseSample {
  std::string scheduler;
  const char* engine = "in-span";  ///< "in-span" or "reference"
  std::size_t ticks = 0;
  double wall_s = 0.0;
  std::uint64_t digest = 0;
  [[nodiscard]] double ticks_per_s() const { return ticks / wall_s; }
};

/// FNV-1a over the headline totals and the per-job finish/energy series:
/// any divergence between the in-span and reference engines shows up here.
std::uint64_t result_digest(const hpcsim::SimulationResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(r.total_carbon.grams());
  mix(r.total_energy.joules());
  mix(r.makespan.seconds());
  for (const auto& j : r.jobs) {
    mix(j.finish.seconds());
    mix(j.energy.joules());
  }
  return h;
}

DenseSample time_dense(const core::ScenarioRunner& runner, const char* sched_name,
                       bool reference_mode) {
  hpcsim::Simulator::Config sim_cfg;
  sim_cfg.cluster = runner.config().cluster;
  sim_cfg.carbon_intensity = runner.trace();
  sim_cfg.reference_mode = reference_mode;
  DenseSample out;
  out.scheduler = sched_name;
  out.engine = reference_mode ? "reference" : "in-span";
  out.wall_s = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    hpcsim::Simulator sim(sim_cfg, runner.jobs());
    std::unique_ptr<hpcsim::SchedulingPolicy> sched;
    if (std::strcmp(sched_name, "fcfs") == 0) {
      sched = std::make_unique<sched::FcfsScheduler>();
    } else {
      sched = std::make_unique<sched::EasyBackfillScheduler>();
    }
    const auto t0 = Clock::now();
    const auto result = sim.run(*sched);
    const double wall = seconds_since(t0);
    out.ticks = result.system_power.size();
    if (wall < out.wall_s) out.wall_s = wall;
    out.digest = result_digest(result);
  }
  return out;
}

HotLoopSample time_hot_loop(const core::ScenarioRunner& runner, const ScaleSpec& s,
                            const char* sched_name) {
  hpcsim::Simulator::Config sim_cfg;
  sim_cfg.cluster = runner.config().cluster;
  sim_cfg.carbon_intensity = runner.trace();
  // Best of 5: each rep is an identical, independent run (fresh Simulator
  // and fresh policy on the same inputs), so the minimum is the least
  // noise-contaminated estimate of the true cost.
  HotLoopSample out;
  out.scale = s.name;
  out.scheduler = sched_name;
  out.jobs = runner.jobs().size();
  out.wall_s = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    hpcsim::Simulator sim(sim_cfg, runner.jobs());
    std::unique_ptr<hpcsim::SchedulingPolicy> sched;
    if (std::strcmp(sched_name, "fcfs") == 0) {
      sched = std::make_unique<sched::FcfsScheduler>();
    } else {
      sched = std::make_unique<sched::EasyBackfillScheduler>();
    }
    const auto t0 = Clock::now();
    const auto result = sim.run(*sched);
    const double wall = seconds_since(t0);
    out.ticks = result.system_power.size();
    out.wall_s = std::min(out.wall_s, wall);
  }
  return out;
}

/// FNV-1a over the bit patterns of the headline totals: enough to detect
/// any serial-vs-parallel divergence without hauling full results around.
std::uint64_t outcome_digest(const std::vector<core::PolicyOutcome>& outcomes) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& o : outcomes) {
    mix(o.result.total_carbon.grams());
    mix(o.result.total_energy.joules());
    mix(o.result.makespan.seconds());
    mix(static_cast<double>(o.completed));
    for (const auto& j : o.result.jobs) {
      mix(j.finish.seconds());
      mix(j.energy.joules());
    }
  }
  return h;
}

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

// --- backfill cost: conservative vs EASY on one sweep grid ---
// The grid of `greenhpc sweep --regions DE --nodes 128 --jobs 600 --days 3
// --replicas 16 --threads 1`: backlogged enough that conservative
// backfill's capacity profile and per-job reservations do real work.

/// Conservative backfill may cost at most this many times EASY on the
/// backfill grid (within-run ratio, --baseline gate). It measured about
/// 8x on a 4-vCPU VM with the one-pass capacity profile, about 280x with
/// the quadratic one.
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

/// Fixed unit of work for the crossover probe: enough arithmetic
/// (~volatile-protected 20k fused ops) that a handful of units dominate
/// chunk-dispatch cost, small enough that the probe stays in microseconds.
double crossover_unit(std::size_t i) {
  volatile double x = 1.0 + static_cast<double>(i % 7);
  for (int k = 0; k < 20000; ++k) x = x * 1.0000001 + 1e-9;
  return x;
}

struct CrossoverReport {
  bool serial_fallback = false;  ///< pool cannot win; crossover undefined
  std::size_t crossover_n = 0;   ///< smallest n where parallel <= serial (0 = never)
  double unit_us = 0.0;          ///< measured cost of one work unit
};

/// Measure the serial/parallel crossover of the chunked fan-out: the
/// smallest iteration count n for which the pool path is no slower than
/// the plain loop (within 5% — below it, ThreadPool's serial fallback is
/// the right call; sweeps at or above it should fan out).
CrossoverReport measure_crossover() {
  CrossoverReport rep;
  auto& pool = util::ThreadPool::global();
  rep.serial_fallback = pool.size() <= 1;

  const auto tu = Clock::now();
  double sink = 0.0;
  for (std::size_t i = 0; i < 32; ++i) sink += crossover_unit(i);
  rep.unit_us = seconds_since(tu) / 32.0 * 1e6;
  (void)sink;
  if (rep.serial_fallback) return rep;  // parallel IS serial; nothing to probe

  for (const std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u}) {
    double serial_best = 1e300;
    double parallel_best = 1e300;
    for (int rep_i = 0; rep_i < 3; ++rep_i) {
      double s = 0.0;
      auto t0 = Clock::now();
      for (std::size_t i = 0; i < n; ++i) s += crossover_unit(i);
      serial_best = std::min(serial_best, seconds_since(t0));
      t0 = Clock::now();
      std::vector<double> slots(n);
      pool.parallel_for_chunked(n, 1, [&](std::size_t i) { slots[i] = crossover_unit(i); });
      parallel_best = std::min(parallel_best, seconds_since(t0));
      (void)s;
    }
    if (parallel_best <= 1.05 * serial_best) {
      rep.crossover_n = n;
      break;
    }
  }
  return rep;
}

/// Minimal scanner for `"key": <number>` in the baseline JSON — the file
/// is our own flat output, not arbitrary JSON.
bool find_json_number(const std::string& text, const std::string& key, double* out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return false;
  return std::sscanf(text.c_str() + pos + needle.size(), " %lf", out) == 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_PERF.json";
  std::string baseline_path;
  std::string before_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if ((std::strcmp(argv[i], "--out") == 0 ||
                std::strcmp(argv[i], "--json-out") == 0) &&
               i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--before") == 0 && i + 1 < argc) {
      before_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_perf [--smoke] [--json-out FILE] "
                   "[--baseline FILE] [--before FILE]\n");
      return 2;
    }
  }

  std::string before_text;
  if (!before_path.empty()) {
    std::FILE* bf = std::fopen(before_path.c_str(), "r");
    if (bf == nullptr) {
      std::fprintf(stderr, "cannot read before-reference %s\n", before_path.c_str());
      return 2;
    }
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), bf)) > 0) before_text.append(buf, n);
    std::fclose(bf);
  }

  const std::size_t n_scales = smoke ? 1 : std::size(kScales);

  // --- hot-loop throughput ---
  util::Table tt({"scale", "nodes", "jobs", "scheduler", "ticks", "wall[ms]",
                  "ticks/s", "jobs/s", "vs before"});
  std::vector<HotLoopSample> samples;
  std::vector<double> speedups;  // 0 = no before number for this sample
  for (std::size_t i = 0; i < n_scales; ++i) {
    const ScaleSpec& s = kScales[i];
    core::ScenarioRunner runner(scale_config(s));
    for (const char* sched_name : {"fcfs", "easy"}) {
      const HotLoopSample sample = time_hot_loop(runner, s, sched_name);
      double before_tps = 0.0;
      if (!before_text.empty()) {
        find_json_number(before_text,
                         sample.scale + "_" + sample.scheduler + "_ticks_per_s",
                         &before_tps);
      }
      const double speedup = before_tps > 0.0 ? sample.ticks_per_s() / before_tps : 0.0;
      tt.add_row({sample.scale, std::to_string(s.nodes), std::to_string(s.jobs),
                  sample.scheduler, std::to_string(sample.ticks),
                  util::Table::fmt(1e3 * sample.wall_s, 1),
                  util::Table::fmt(sample.ticks_per_s(), 0),
                  util::Table::fmt(sample.jobs_per_s(), 0),
                  speedup > 0.0 ? util::Table::fmt(speedup, 2) + "x" : "-"});
      samples.push_back(sample);
      speedups.push_back(speedup);
    }
  }
  std::printf("%s\n", tt.str("Simulator hot-loop throughput").c_str());

  // --- dense scale: in-span completions vs the reference loop ---
  const core::ScenarioConfig dense_cfg = dense_config();
  core::ScenarioRunner dense_runner(dense_cfg);
  util::Table dt({"scheduler", "engine", "ticks", "wall[ms]", "ticks/s",
                  "speedup"});
  std::vector<DenseSample> dense_samples;
  bool dense_identical = true;
  double dense_min_speedup = 1e300;
  for (const char* sched_name : {"fcfs", "easy"}) {
    const DenseSample reference = time_dense(dense_runner, sched_name, true);
    const DenseSample inspan = time_dense(dense_runner, sched_name, false);
    dense_identical = dense_identical && reference.digest == inspan.digest;
    const double speedup = reference.wall_s / inspan.wall_s;
    dense_min_speedup = std::min(dense_min_speedup, speedup);
    dt.add_row({sched_name, reference.engine, std::to_string(reference.ticks),
                util::Table::fmt(1e3 * reference.wall_s, 1),
                util::Table::fmt(reference.ticks_per_s(), 0), "-"});
    dt.add_row({sched_name, inspan.engine, std::to_string(inspan.ticks),
                util::Table::fmt(1e3 * inspan.wall_s, 1),
                util::Table::fmt(inspan.ticks_per_s(), 0),
                util::Table::fmt(speedup, 2) + "x"});
    dense_samples.push_back(reference);
    dense_samples.push_back(inspan);
  }
  std::printf("%s\n",
              dt.str("Dense scale (512 nodes, 2000 single-node jobs, 15 s tick, "
                     "hourly arrival waves)")
                  .c_str());
  std::printf("Dense results across engines: %s\n\n",
              dense_identical ? "bit-identical" : "DIVERGED");

  // --- serial vs parallel sweep ---
  auto sweep_cfg = scale_config(kScales[0]);
  sweep_cfg.workload.checkpointable_fraction = 0.5;
  core::ScenarioRunner sweep_runner(sweep_cfg);
  const auto cases = sweep_cases();

  // Best of 5, serial and parallel interleaved: at this scale the sweep is
  // milliseconds, so a single-shot (or phase-ordered) timing would gate on
  // allocator state and clock drift rather than on the fan-out path.
  std::vector<core::PolicyOutcome> serial;
  std::vector<core::PolicyOutcome> parallel;
  double serial_s = 1e300;
  double parallel_s = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const auto ts0 = Clock::now();
    std::vector<core::PolicyOutcome> s_out;
    s_out.reserve(cases.size());
    for (const auto& c : cases) s_out.push_back(sweep_runner.run(c.label, c.scheduler, c.power));
    serial_s = std::min(serial_s, seconds_since(ts0));
    serial = std::move(s_out);

    const auto tp0 = Clock::now();
    std::vector<core::PolicyOutcome> p_out = sweep_runner.run_all(cases);
    parallel_s = std::min(parallel_s, seconds_since(tp0));
    parallel = std::move(p_out);
  }

  const std::uint64_t serial_digest = outcome_digest(serial);
  const std::uint64_t parallel_digest = outcome_digest(parallel);
  const bool identical = serial_digest == parallel_digest;
  const std::size_t threads = util::ThreadPool::global().size();

  double before_sweep_s = 0.0;
  if (!before_text.empty()) {
    find_json_number(before_text, "sweep_serial_s", &before_sweep_s);
  }
  const CrossoverReport crossover = measure_crossover();
  std::printf("Sweep (%zu cases): serial %.3f s, parallel %.3f s on %zu threads "
              "(pool speedup %.2fx%s); results %s\n",
              cases.size(), serial_s, parallel_s, threads, serial_s / parallel_s,
              crossover.serial_fallback ? ", serial fallback engaged" : "",
              identical ? "bit-identical" : "DIVERGED");
  if (crossover.serial_fallback) {
    std::printf("Crossover: single-worker pool — chunked loops run the serial "
                "path (unit %.1f us)\n",
                crossover.unit_us);
  } else if (crossover.crossover_n > 0) {
    std::printf("Crossover: parallel fan-out breaks even at n=%zu units of "
                "%.1f us on %zu threads\n",
                crossover.crossover_n, crossover.unit_us, threads);
  } else {
    std::printf("Crossover: parallel never beat serial up to n=64 (unit %.1f us, "
                "%zu threads)\n",
                crossover.unit_us, threads);
  }
  if (before_sweep_s > 0.0) {
    std::printf("Sweep vs pre-optimization engine: %.3f s -> %.3f s serial "
                "(%.1fx)\n",
                before_sweep_s, serial_s, before_sweep_s / serial_s);
  }
  std::printf("\n");

  // --- tracing overhead probe ---
  // One more pass over the reference hot loop (small/fcfs) with the event
  // tracer switched on: overhead_x is the "instrumentation compiled in AND
  // enabled stays cheap" number for the report. Best of 3; the rings are
  // reset before each rep so the drained span table describes one run.
  const HotLoopSample& ref = samples[0];  // small/fcfs = the reference hot loop
  core::ScenarioRunner traced_runner(scale_config(kScales[0]));
  obs::Tracer::set_buffer_capacity(std::size_t{1} << 19);
  double traced_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    obs::Tracer::reset();
    obs::Tracer::set_enabled(true);
    hpcsim::Simulator::Config traced_cfg;
    traced_cfg.cluster = traced_runner.config().cluster;
    traced_cfg.carbon_intensity = traced_runner.trace();
    hpcsim::Simulator sim(traced_cfg, traced_runner.jobs());
    sched::FcfsScheduler fcfs;
    const auto t0 = Clock::now();
    (void)sim.run(fcfs);
    traced_s = std::min(traced_s, seconds_since(t0));
    obs::Tracer::set_enabled(false);
  }
  const std::vector<obs::SpanStat> phases = obs::Tracer::aggregate_spans();
  const std::uint64_t traced_dropped = obs::Tracer::dropped();
  const double overhead_x = ref.wall_s > 0.0 ? traced_s / ref.wall_s : 0.0;
  std::printf("Tracing overhead (small/fcfs): %.1f ms traced vs %.1f ms untraced "
              "(%.2fx), %zu span kinds, %llu dropped\n\n",
              1e3 * traced_s, 1e3 * ref.wall_s, overhead_x, phases.size(),
              static_cast<unsigned long long>(traced_dropped));
  obs::Tracer::reset();

  // --- backfill cost ---
  const std::vector<BackfillSample> backfill = measure_backfill_cost();
  const double backfill_ratio = backfill[1].wall_s / backfill[0].wall_s;
  const bool backfill_stable = backfill[0].stable && backfill[1].stable;
  for (const auto& b : backfill) {
    std::printf("Backfill cost (DE, 128 nodes, 600 jobs, 3 days, 16 replicas): "
                "%-12s best %.3f s of %d, digest %016llx%s\n",
                b.scheduler, b.wall_s, kBackfillRepeats,
                static_cast<unsigned long long>(b.digest),
                b.stable ? "" : " (CHANGED between repeats)");
  }
  std::printf("Backfill cost: conservative / easy = %.1fx\n\n", backfill_ratio);

  // --- JSON report ---
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"threads\": %zu,\n  \"smoke\": %s,\n", threads,
               smoke ? "true" : "false");
  std::fprintf(f, "  \"reference_ticks_per_s\": %.1f,\n", ref.ticks_per_s());
  std::fprintf(f, "  \"hot_loop\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    std::fprintf(f,
                 "    {\"scale\": \"%s\", \"scheduler\": \"%s\", \"ticks\": %zu, "
                 "\"jobs\": %zu, \"wall_s\": %.6f, \"ticks_per_s\": %.1f, "
                 "\"jobs_per_s\": %.1f",
                 s.scale.c_str(), s.scheduler.c_str(), s.ticks, s.jobs, s.wall_s,
                 s.ticks_per_s(), s.jobs_per_s());
    if (speedups[i] > 0.0) {
      std::fprintf(f, ", \"before_ticks_per_s\": %.1f, \"speedup_vs_before\": %.2f",
                   s.ticks_per_s() / speedups[i], speedups[i]);
    }
    std::fprintf(f, "}%s\n", i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"dense\": {\"nodes\": %d, \"jobs\": %d, \"tick_s\": %.0f, "
               "\"bit_identical\": %s, \"min_speedup\": %.2f, \"samples\": [\n",
               dense_cfg.cluster.nodes, dense_cfg.workload.job_count,
               dense_cfg.cluster.tick.seconds(), dense_identical ? "true" : "false",
               dense_min_speedup);
  for (std::size_t i = 0; i < dense_samples.size(); ++i) {
    const auto& s = dense_samples[i];
    std::fprintf(f,
                 "    {\"scheduler\": \"%s\", \"engine\": \"%s\", "
                 "\"ticks\": %zu, \"wall_s\": %.6f, \"ticks_per_s\": %.1f}%s\n",
                 s.scheduler.c_str(), s.engine,
                 s.ticks, s.wall_s, s.ticks_per_s(),
                 i + 1 < dense_samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  std::fprintf(f, "  \"dense_fcfs_ticks_per_s\": %.1f,\n",
               dense_samples[1].ticks_per_s());
  std::fprintf(f,
               "  \"sweep\": {\"cases\": %zu, \"serial_s\": %.6f, \"parallel_s\": "
               "%.6f, \"speedup\": %.3f, \"bit_identical\": %s, "
               "\"serial_fallback\": %s",
               cases.size(), serial_s, parallel_s, serial_s / parallel_s,
               identical ? "true" : "false",
               crossover.serial_fallback ? "true" : "false");
  if (before_sweep_s > 0.0) {
    std::fprintf(f, ", \"before_serial_s\": %.6f, \"speedup_vs_before\": %.2f",
                 before_sweep_s, before_sweep_s / serial_s);
  }
  std::fprintf(f, "},\n");
  std::fprintf(f,
               "  \"tracing\": {\"enabled_wall_s\": %.6f, \"disabled_wall_s\": %.6f, "
               "\"overhead_x\": %.3f, \"dropped\": %llu, \"phases\": [\n",
               traced_s, ref.wall_s, overhead_x,
               static_cast<unsigned long long>(traced_dropped));
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const auto& p = phases[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"count\": %llu, \"total_ms\": %.3f}%s\n",
                 p.name.c_str(), static_cast<unsigned long long>(p.count), p.total_ms,
                 i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  std::fprintf(f,
               "  \"crossover\": {\"serial_fallback\": %s, \"crossover_n\": %zu, "
               "\"unit_us\": %.2f},\n",
               crossover.serial_fallback ? "true" : "false", crossover.crossover_n,
               crossover.unit_us);
  std::fprintf(f,
               "  \"backfill\": {\"easy_s\": %.6f, \"conservative_s\": %.6f, "
               "\"ratio\": %.2f, \"easy_digest\": \"%016llx\", "
               "\"conservative_digest\": \"%016llx\", \"stable\": %s}\n}\n",
               backfill[0].wall_s, backfill[1].wall_s, backfill_ratio,
               static_cast<unsigned long long>(backfill[0].digest),
               static_cast<unsigned long long>(backfill[1].digest),
               backfill_stable ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (!identical) {
    std::fprintf(stderr, "FAIL: parallel sweep diverged from serial results\n");
    return 1;
  }
  if (!dense_identical) {
    std::fprintf(stderr,
                 "FAIL: in-span completion engine diverged from the reference "
                 "loop on the dense scale\n");
    return 1;
  }
  if (!backfill_stable) {
    std::fprintf(stderr, "FAIL: a backfill-cost sweep digest changed between repeats\n");
    return 1;
  }

  // --- baseline regression gate ---
  if (!baseline_path.empty()) {
    std::FILE* bf = std::fopen(baseline_path.c_str(), "r");
    if (bf == nullptr) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
      return 2;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), bf)) > 0) text.append(buf, n);
    std::fclose(bf);
    double base_tps = 0.0;
    if (!find_json_number(text, "reference_ticks_per_s", &base_tps) || base_tps <= 0.0) {
      std::fprintf(stderr, "baseline %s has no reference_ticks_per_s\n",
                   baseline_path.c_str());
      return 2;
    }
    const double measured = ref.ticks_per_s();
    std::printf("Baseline gate: measured %.0f ticks/s vs baseline %.0f (ratio %.2f)\n",
                measured, base_tps, measured / base_tps);
    if (measured < 0.5 * base_tps) {
      std::fprintf(stderr,
                   "FAIL: reference hot loop regressed >2x vs baseline "
                   "(%.0f < 0.5 * %.0f ticks/s)\n",
                   measured, base_tps);
      return 1;
    }
    // The pool path must never lose to the plain loop: either it wins, or
    // the serial fallback makes it the plain loop (speedup ~1.0). 0.9
    // rather than 1.0 absorbs timer noise on the few-second sweep.
    const double sweep_speedup = serial_s / parallel_s;
    std::printf("Baseline gate: sweep parallel/serial speedup %.2fx%s\n",
                sweep_speedup,
                crossover.serial_fallback ? " (serial fallback)" : "");
    if (sweep_speedup < 0.9) {
      std::fprintf(stderr,
                   "FAIL: parallel sweep slower than serial (%.2fx < 0.9x) — "
                   "fan-out overhead is not being amortized or the serial "
                   "fallback failed to engage\n",
                   sweep_speedup);
      return 1;
    }
    // Dense gate: the completion-bound scale must not regress >2x against
    // the committed baseline, and the in-span path must actually win over
    // the reference loop, a ratio taken within this run (2.0x floor; the
    // committed numbers show the real margin).
    double base_dense_tps = 0.0;
    if (find_json_number(text, "dense_fcfs_ticks_per_s", &base_dense_tps) &&
        base_dense_tps > 0.0) {
      const double dense_tps = dense_samples[1].ticks_per_s();
      std::printf(
          "Baseline gate: dense fcfs %.0f ticks/s vs baseline %.0f (ratio %.2f)\n",
          dense_tps, base_dense_tps, dense_tps / base_dense_tps);
      if (dense_tps < 0.5 * base_dense_tps) {
        std::fprintf(stderr,
                     "FAIL: dense hot loop regressed >2x vs baseline "
                     "(%.0f < 0.5 * %.0f ticks/s)\n",
                     dense_tps, base_dense_tps);
        return 1;
      }
    }
    std::printf("Baseline gate: dense in-span/reference speedup %.2fx\n",
                dense_min_speedup);
    if (dense_min_speedup < 2.0) {
      std::fprintf(stderr,
                   "FAIL: in-span completion kernel less than 2x faster than "
                   "the reference loop on the dense scale (%.2fx < 2.0x)\n",
                   dense_min_speedup);
      return 1;
    }
    // Backfill gate: conservative backfill must stay within a constant
    // factor of EASY on the same grid, a ratio taken within this run.
    std::printf("Baseline gate: backfill conservative/easy cost %.1fx (gate <= %.0fx)\n",
                backfill_ratio, kMaxBackfillCostRatio);
    if (backfill_ratio > kMaxBackfillCostRatio) {
      std::fprintf(stderr,
                   "FAIL: conservative backfill costs %.1fx EASY on the backfill "
                   "grid (> %.0fx)\n",
                   backfill_ratio, kMaxBackfillCostRatio);
      return 1;
    }
  }
  return 0;
}
