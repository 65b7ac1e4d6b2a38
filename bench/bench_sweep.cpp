// EXP-SWEEP — sweep-engine fan-out scaling and determinism.
//
// Not a paper experiment: like EXP-PERF this bench tracks the engine. The
// paper's fleet-scale comparisons (sections 3.1-3.4) need hundreds of
// simulations per claim; this bench runs one such grid — regions ×
// intensity kinds × policies × seed replicas, 256 cases at full scale —
// through core::SweepEngine on pools of 1, 2 and 8 threads, and asserts
// the three digests are bit-identical (the engine's determinism
// contract). Wall time per thread count gives a scaling ratio within the
// run, gated at >= 0.7x per thread on hosts with spare cores; elsewhere
// the pool's serial fallback engages and is reported as such, not scored
// as a regression. A traced run asserts the digest is unchanged with the
// event tracer enabled ("tracing" block in the JSON). Timing claims,
// tracing and shipping overhead included, come from perfbench/.
// A final interrupted-and-resumed run (write-ahead journal, aborted after
// four blocks, resumed) asserts the crash-safety contract: the resumed
// digest must match the clean run bit for bit ("resume" block).
//
// With --worker-bin the bench additionally gates the DISTRIBUTED digest
// contract: it runs the given greenhpc CLI's `sweep` command on a small
// grid with 0, 1, 2 and 4 worker processes and requires all four digests
// to be bit-identical ("distributed" block in the JSON; a mismatch fails
// the bench). A follow-on obs-shipping gate reruns the 2-worker grid with
// the observability plane fully on (stat/trace shipping + fleet trace
// merge) and fully off (--no-obs-ship): both digests must match the
// reference bit for bit — the hard proof that shipped telemetry never
// feeds the fold ("shipping" block). Without the flag the gates report
// themselves skipped.
//
// Usage: bench_sweep [--smoke] [--out FILE] [--threads N] [--worker-bin PATH]
//   --smoke           small grid (CI smoke: seconds, not minutes)
//   --out FILE        write the JSON report there (default BENCH_SWEEP.json)
//   --threads N       add N to the measured thread counts (default 1, 2, 8)
//   --worker-bin PATH greenhpc CLI binary for the distributed digest gate

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "carbon/forecast.hpp"
#include "carbon/trace_cache.hpp"
#include "core/sweep.hpp"
#include "core/sweep_journal.hpp"
#include "hpcsim/workload.hpp"
#include "obs/trace.hpp"
#include "sched/carbon_aware.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace {

using namespace greenhpc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The measured grid. Full scale: 4 regions x 2 kinds x 4 policies x
/// 8 replicas = 256 cases; smoke: 2 x 1 x 2 x 2 = 8 cases. Workload is
/// deliberately small — the bench measures fan-out, not the hot loop.
core::SweepGrid make_grid(bool smoke) {
  core::SweepGrid grid;
  grid.base = bench::reference_scenario();
  grid.base.cluster.nodes = 32;
  grid.base.cluster.tick = minutes(4.0);
  grid.base.workload.job_count = smoke ? 24 : 48;
  grid.base.workload.span = days(1.0);
  grid.base.workload.max_job_nodes = 16;
  grid.base.trace_span = days(3.0);
  grid.base.trace_step = minutes(30.0);

  grid.regions = smoke ? std::vector<carbon::Region>{carbon::Region::Germany,
                                                     carbon::Region::France}
                       : std::vector<carbon::Region>{
                             carbon::Region::Germany, carbon::Region::France,
                             carbon::Region::Poland, carbon::Region::Norway};
  grid.intensity_kinds =
      smoke ? std::vector<carbon::IntensityKind>{carbon::IntensityKind::Average}
            : std::vector<carbon::IntensityKind>{carbon::IntensityKind::Average,
                                                 carbon::IntensityKind::Marginal};
  grid.seed_replicas = smoke ? 2 : 8;

  grid.policies.push_back(
      {"fcfs", [] { return std::make_unique<sched::FcfsScheduler>(); }});
  grid.policies.push_back(
      {"easy", [] { return std::make_unique<sched::EasyBackfillScheduler>(); }});
  if (!smoke) {
    grid.policies.push_back({"easy+mold", [] {
                               return std::make_unique<sched::EasyBackfillScheduler>(true);
                             }});
    grid.policies.push_back({"carbon-easy", [] {
                               sched::CarbonAwareEasyScheduler::Config c;
                               c.max_hold = hours(24.0);
                               return std::make_unique<sched::CarbonAwareEasyScheduler>(
                                   c, std::make_shared<carbon::PersistenceForecaster>());
                             }});
  }
  return grid;
}

struct SweepSample {
  std::size_t threads = 0;  ///< pool worker count (team = threads + caller)
  double wall_s = 0.0;
  std::uint64_t digest = 0;
  bool serial_fallback = false;
};

/// One CLI run of the distributed digest gate.
struct DistributedSample {
  int workers = 0;
  std::uint64_t digest = 0;
  bool ok = false;  ///< CLI exited 0 and printed a digest line
};

/// Run `cli sweep --workers N` on a small fixed grid and scrape the
/// `digest: <hex16>` line from its stdout (stderr passes through to the
/// operator). ok=false when the CLI fails or prints no digest.
DistributedSample run_distributed(const std::string& cli, int workers,
                                  const std::string& extra_flags = "") {
  DistributedSample s;
  s.workers = workers;
  const std::string cmd =
      cli +
      " sweep --quiet --regions DE,FR --kinds average --nodes 64 --jobs 60"
      " --days 2 --replicas 2 --sched easy,carbon-easy --block 4 --workers " +
      std::to_string(workers) + extra_flags;
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return s;
  char line[512];
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    unsigned long long d = 0;
    if (std::sscanf(line, "digest: %16llx", &d) == 1) {
      s.digest = d;
      s.ok = true;
    }
  }
  const int rc = ::pclose(pipe);
  if (rc != 0) s.ok = false;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_SWEEP.json";
  std::string worker_bin;
  std::vector<std::size_t> thread_counts = {1, 2, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--worker-bin") == 0 && i + 1 < argc) {
      worker_bin = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const long t = std::atol(argv[++i]);
      if (t < 1) {
        std::fprintf(stderr, "--threads wants a positive integer\n");
        return 2;
      }
      thread_counts.push_back(static_cast<std::size_t>(t));
    } else {
      std::fprintf(stderr,
                   "usage: bench_sweep [--smoke] [--out FILE] [--threads N] "
                   "[--worker-bin PATH]\n");
      return 2;
    }
  }
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(std::unique(thread_counts.begin(), thread_counts.end()),
                      thread_counts.end());

  const core::SweepGrid grid = make_grid(smoke);
  const std::size_t n_cases = grid.case_count();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  // Warm the shared-asset caches once so every thread count measures pure
  // simulation fan-out on identical (pointer-identical) inputs.
  {
    core::SweepEngine::Options opts;
    util::ThreadPool warm_pool(1);
    opts.pool = &warm_pool;
    (void)core::SweepEngine(std::move(opts)).run(grid);
  }
  const auto& tc = carbon::TraceCache::global();
  const auto& wc = hpcsim::WorkloadCache::global();

  std::vector<SweepSample> samples;
  for (const std::size_t threads : thread_counts) {
    util::ThreadPool pool(threads);
    core::SweepEngine::Options opts;
    opts.pool = &pool;
    const core::SweepEngine engine(std::move(opts));
    const auto t0 = Clock::now();
    const core::SweepResult result = engine.run(grid);
    SweepSample s;
    s.threads = threads;
    s.wall_s = seconds_since(t0);
    s.digest = result.digest;
    // Mirrors parallel_for_chunked's crossover test: a single-worker pool
    // dispatches nothing and runs the plain serial loop.
    s.serial_fallback = pool.size() <= 1;
    samples.push_back(s);
  }

  const double serial_s = samples.front().wall_s;  // thread_counts starts at 1
  bool identical = true;
  for (const SweepSample& s : samples) identical &= s.digest == samples.front().digest;

  util::Table table({"threads", "wall[s]", "cases/s", "speedup", "efficiency", "mode"});
  for (const SweepSample& s : samples) {
    const double speedup = serial_s / s.wall_s;
    table.add_row({std::to_string(s.threads), util::Table::fmt(s.wall_s, 3),
                   util::Table::fmt(n_cases / s.wall_s, 1), util::Table::fmt(speedup, 2),
                   util::Table::fmt(speedup / static_cast<double>(s.threads), 2),
                   s.serial_fallback ? "serial-fallback" : "parallel"});
  }
  std::printf("%s\n", table
                          .str("EXP-SWEEP: " + std::to_string(n_cases) +
                               "-case sweep scaling (hardware_concurrency=" +
                               std::to_string(hw) + ")")
                          .c_str());
  std::printf("digests %s across thread counts; shared assets: %zu traces "
              "(%zu hits), %zu workloads (%zu hits)\n\n",
              identical ? "bit-identical" : "DIVERGED", tc.size(), tc.hits(),
              wc.size(), wc.hits());

  // Scaling verdict. With spare cores (hw >= 4 and a >= 4-thread pool) the
  // largest in-budget pool must reach 0.7x/thread; otherwise the host
  // cannot express parallel speedup and the serial fallback (or a
  // saturated 1-2 core run) is the expected, reported outcome.
  bool scaling_ok = true;
  std::string scaling_note = "no >=4-thread pool fits this host (hw=" +
                             std::to_string(hw) + "); serial fallback governs";
  for (const SweepSample& s : samples) {
    if (s.threads < 4 || s.threads > hw) continue;
    const double eff = serial_s / s.wall_s / static_cast<double>(s.threads);
    scaling_ok = eff >= 0.7;
    scaling_note = "T=" + std::to_string(s.threads) +
                   " efficiency " + util::Table::fmt(eff, 2);
  }
  std::printf("scaling: %s (%s)\n", scaling_ok ? "ok" : "BELOW 0.7x/T",
              scaling_note.c_str());

  // --- traced run: digest identity with instrumentation live ---
  // Acceptance check for the observability layer: the tracer is purely
  // observational, so running the same grid with tracing enabled must
  // reproduce the untraced digest bit for bit.
  obs::Tracer::set_buffer_capacity(std::size_t{1} << 19);
  obs::Tracer::reset();
  obs::Tracer::set_enabled(true);
  std::uint64_t traced_digest = 0;
  {
    util::ThreadPool pool(2);
    core::SweepEngine::Options opts;
    opts.pool = &pool;
    traced_digest = core::SweepEngine(std::move(opts)).run(grid).digest;
  }  // pool joins here: every worker ring is quiescent before the reset
  obs::Tracer::set_enabled(false);
  const bool traced_identical = traced_digest == samples.front().digest;
  std::printf("traced run (2-thread pool): digest %s the untraced run\n",
              traced_identical ? "matches" : "DIVERGED from");
  obs::Tracer::reset();

  // --- interrupted + resumed run: the crash-safety acceptance check ---
  // Journal the grid, abort the run mid-way (a progress callback that
  // throws stands in for SIGKILL: the journal is fsynced before progress
  // fires, so the durable state is identical), resume from the journal and
  // require the digest to match the uninterrupted runs bit for bit.
  std::uint64_t resumed_digest = 0;
  std::size_t replayed = 0;
  {
    const std::string dir = out_path + ".journal.d";
    const std::size_t block = std::max<std::size_t>(1, n_cases / 8);
    struct Abort {};
    {
      core::SweepJournal journal = core::SweepJournal::create(
          dir, grid.config_digest(), n_cases, block);
      util::ThreadPool pool(2);
      core::SweepEngine::Options opts;
      opts.pool = &pool;
      opts.journal = &journal;
      std::size_t blocks_done = 0;
      opts.progress = [&blocks_done](std::size_t, std::size_t) {
        if (++blocks_done == 4) throw Abort{};
      };
      try {
        (void)core::SweepEngine(std::move(opts)).run(grid);
      } catch (const Abort&) {
      }
    }
    core::SweepJournal journal =
        core::SweepJournal::resume(dir, grid.config_digest(), n_cases);
    util::ThreadPool pool(2);
    core::SweepEngine::Options opts;
    opts.pool = &pool;
    opts.journal = &journal;
    const core::SweepResult resumed = core::SweepEngine(std::move(opts)).run(grid);
    resumed_digest = resumed.digest;
    replayed = resumed.replayed_cases;
    std::remove(journal.path().c_str());
    std::remove(dir.c_str());
  }
  const bool resume_identical = resumed_digest == samples.front().digest;
  std::printf("interrupted + resumed run: %zu cases replayed from the journal, "
              "digest %s the clean run\n",
              replayed, resume_identical ? "matches" : "DIVERGED from");

  // --- distributed digest gate: CLI sweep with 0/1/2/4 worker processes ---
  // The coordinator contract: sharding blocks across worker PROCESSES must
  // reproduce the in-process digest bit for bit for any worker count.
  std::vector<DistributedSample> dist;
  bool dist_identical = true;
  if (!worker_bin.empty()) {
    for (const int w : {0, 1, 2, 4}) {
      const DistributedSample s = run_distributed(worker_bin, w);
      if (!s.ok) {
        std::fprintf(stderr, "distributed gate: `%s sweep --workers %d` failed\n",
                     worker_bin.c_str(), w);
        dist_identical = false;
      }
      dist.push_back(s);
    }
    for (const DistributedSample& s : dist) {
      dist_identical &= s.ok && s.digest == dist.front().digest;
    }
    std::printf("distributed gate (0/1/2/4 workers): digests %s\n",
                dist_identical ? "bit-identical" : "DIVERGED");
  } else {
    std::printf("distributed gate: skipped (pass --worker-bin PATH to run it)\n");
  }

  // --- obs shipping gate: telemetry must be digest-neutral ---
  // The 2-worker CLI grid again, once with the observability plane fully
  // on (stat shipping + fleet trace merge, which also turns on per-block
  // trace shipping in every worker) and once with --no-obs-ship. Both
  // digests must match the distributed reference bit for bit — the hard
  // check that shipped telemetry never reaches the fold path.
  bool ship_ran = false;
  bool ship_identical = true;
  std::uint64_t ship_on_digest = 0;
  std::uint64_t ship_off_digest = 0;
  if (!worker_bin.empty() && !dist.empty() && dist.front().ok) {
    ship_ran = true;
    const std::string fleet_path = out_path + ".fleet.json";
    const DistributedSample on =
        run_distributed(worker_bin, 2, " --fleet-trace-out " + fleet_path);
    const DistributedSample off = run_distributed(worker_bin, 2, " --no-obs-ship");
    std::remove(fleet_path.c_str());
    ship_on_digest = on.digest;
    ship_off_digest = off.digest;
    ship_identical = on.ok && off.ok && on.digest == dist.front().digest &&
                     off.digest == dist.front().digest;
    std::printf("obs shipping gate (2 workers, shipping on and off): digests %s\n",
                ship_identical ? "bit-identical" : "DIVERGED");
  } else {
    std::printf("obs shipping gate: skipped (needs --worker-bin)\n");
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"smoke\": %s,\n  \"cases\": %zu,\n  \"cells\": %zu,\n",
               smoke ? "true" : "false", n_cases, grid.cell_count());
  std::fprintf(f, "  \"replicas\": %d,\n  \"hardware_concurrency\": %u,\n",
               grid.seed_replicas, hw);
  std::fprintf(f, "  \"digest\": \"%016llx\",\n  \"bit_identical\": %s,\n",
               static_cast<unsigned long long>(samples.front().digest),
               identical ? "true" : "false");
  std::fprintf(f, "  \"scaling_ok\": %s,\n  \"scaling_note\": \"%s\",\n",
               scaling_ok ? "true" : "false", scaling_note.c_str());
  std::fprintf(f, "  \"trace_cache\": {\"entries\": %zu, \"hits\": %zu},\n", tc.size(),
               tc.hits());
  std::fprintf(f, "  \"workload_cache\": {\"entries\": %zu, \"hits\": %zu},\n",
               wc.size(), wc.hits());
  std::fprintf(f, "  \"tracing\": {\"digest\": \"%016llx\", \"digest_matches\": %s},\n",
               static_cast<unsigned long long>(traced_digest),
               traced_identical ? "true" : "false");
  std::fprintf(f,
               "  \"resume\": {\"replayed_cases\": %zu, \"digest\": \"%016llx\", "
               "\"digest_matches\": %s},\n",
               replayed, static_cast<unsigned long long>(resumed_digest),
               resume_identical ? "true" : "false");
  if (worker_bin.empty()) {
    std::fprintf(f, "  \"distributed\": {\"ran\": false},\n");
  } else {
    std::fprintf(f, "  \"distributed\": {\"ran\": true, \"bit_identical\": %s, "
                    "\"runs\": [\n",
                 dist_identical ? "true" : "false");
    for (std::size_t i = 0; i < dist.size(); ++i) {
      std::fprintf(f,
                   "    {\"workers\": %d, \"digest\": \"%016llx\", \"ok\": %s}%s\n",
                   dist[i].workers, static_cast<unsigned long long>(dist[i].digest),
                   dist[i].ok ? "true" : "false", i + 1 < dist.size() ? "," : "");
    }
    std::fprintf(f, "  ]},\n");
  }
  if (!ship_ran) {
    std::fprintf(f, "  \"shipping\": {\"ran\": false},\n");
  } else {
    std::fprintf(f,
                 "  \"shipping\": {\"ran\": true, \"bit_identical\": %s, "
                 "\"digest_on\": \"%016llx\", \"digest_off\": \"%016llx\"},\n",
                 ship_identical ? "true" : "false",
                 static_cast<unsigned long long>(ship_on_digest),
                 static_cast<unsigned long long>(ship_off_digest));
  }
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const SweepSample& s = samples[i];
    std::fprintf(f,
                 "    {\"threads\": %zu, \"wall_s\": %.6f, \"cases_per_s\": %.1f, "
                 "\"speedup\": %.3f, \"serial_fallback\": %s}%s\n",
                 s.threads, s.wall_s, n_cases / s.wall_s, serial_s / s.wall_s,
                 s.serial_fallback ? "true" : "false",
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (!identical) {
    std::fprintf(stderr, "FAIL: sweep digests diverged across thread counts\n");
    return 1;
  }
  if (!traced_identical) {
    std::fprintf(stderr,
                 "FAIL: enabling the tracer changed the sweep digest "
                 "(%016llx traced vs %016llx untraced) — instrumentation "
                 "must stay purely observational\n",
                 static_cast<unsigned long long>(traced_digest),
                 static_cast<unsigned long long>(samples.front().digest));
    return 1;
  }
  if (!resume_identical) {
    std::fprintf(stderr,
                 "FAIL: resuming an interrupted sweep from its journal changed "
                 "the digest (%016llx resumed vs %016llx clean)\n",
                 static_cast<unsigned long long>(resumed_digest),
                 static_cast<unsigned long long>(samples.front().digest));
    return 1;
  }
  if (!scaling_ok) {
    std::fprintf(stderr, "FAIL: sweep scaling below 0.7x per thread\n");
    return 1;
  }
  if (!dist_identical) {
    std::fprintf(stderr,
                 "FAIL: distributed sweep digests diverged across worker "
                 "process counts (0/1/2/4 workers must be bit-identical)\n");
    return 1;
  }
  if (!ship_identical) {
    std::fprintf(stderr,
                 "FAIL: observability shipping changed the sweep digest "
                 "(on %016llx / off %016llx vs reference %016llx) — shipped "
                 "telemetry must never reach the fold path\n",
                 static_cast<unsigned long long>(ship_on_digest),
                 static_cast<unsigned long long>(ship_off_digest),
                 static_cast<unsigned long long>(
                     dist.empty() ? 0 : dist.front().digest));
    return 1;
  }
  return 0;
}
