// Workloads sweep_backlog and sweep_fleet.
//
// sweep_backlog is an in-process SweepEngine sweep on a 2-worker pool with
// the journal on, over backlogged cases: a few hundred jobs on 64 and 128
// nodes over 3 days, so queues run deep and the per-tick path and the
// policies' on_tick dominate (conservative backfill most of all). A
// scheduler or per-tick change shows here.
//
// sweep_fleet is a SweepCoordinator sweep over two `greenhpc sweep-worker`
// processes (one thread each) with the default shard journals and obs
// shipping, over many light cases in blocks of 2. Each case simulates in
// well under a millisecond, so spawn and hello, line encoding and parsing,
// pipe round trips, shard fsyncs and the in-order fold take a large share.
// A fabric, journal or shipping change shows here; it drives core through
// processes where sweep_backlog drives it through threads.

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attribution.hpp"
#include "carbon/forecast.hpp"
#include "carbon/region.hpp"
#include "carbon/trace_cache.hpp"
#include "common.hpp"
#include "core/sweep.hpp"
#include "core/sweep_coordinator.hpp"
#include "core/sweep_journal.hpp"
#include "core/sweep_protocol.hpp"
#include "hpcsim/workload.hpp"
#include "obs/trace.hpp"
#include "sched/carbon_aware.hpp"
#include "sched/conservative.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/subprocess.hpp"

namespace perfbench {
namespace {

using namespace greenhpc;
namespace fs = std::filesystem;

/// Grid axes in the vocabulary of `greenhpc sweep` flags, plus the
/// simulation tick, which the CLI leaves at its default (0 = default).
struct Shape {
  std::vector<carbon::Region> regions;
  std::vector<carbon::IntensityKind> kinds;
  std::vector<int> nodes;
  int jobs = 0;
  double days = 0.0;
  int replicas = 0;
  std::vector<std::string> policies;
  std::size_t block = 0;
  double tick_min = 0.0;
};

// Run-to-run steadiness comes from the replica count. A case's cost
// follows its workload's queue depth, which varies a lot between seeds
// (conservative backfill's cost varies by about 45% per workload), and
// all cells of one replica share its workload; only many replicas per
// round average that out. The 5-minute tick keeps each case cheap enough
// for 128 replicas in a round of about a second, while the queue stays
// deep.
Shape backlog_shape(bool tiny) {
  using carbon::IntensityKind;
  using carbon::Region;
  if (tiny) {
    return Shape{{Region::Germany}, {IntensityKind::Average}, {64}, 120, 1.0, 2,
                 {"easy", "carbon-easy", "conservative"}, 2, 5.0};
  }
  return Shape{{Region::Germany, Region::France},
               {IntensityKind::Average, IntensityKind::Marginal},
               {128},
               300,
               3.0,
               128,
               {"easy", "carbon-easy", "conservative"},
               8,
               5.0};
}

Shape fleet_shape(bool tiny) {
  using carbon::IntensityKind;
  using carbon::Region;
  if (tiny) {
    return Shape{{Region::Germany}, {IntensityKind::Average}, {16}, 40, 1.0, 4,
                 {"easy", "fcfs"}, 2};
  }
  return Shape{{Region::Germany, Region::France},
               {IntensityKind::Average},
               {16, 32},
               60,
               1.0,
               96,
               {"easy", "fcfs"},
               2};
}

/// The grid's base seed. `greenhpc sweep-worker` parses --seed as a
/// number, so it is kept below 2^53 to survive the round trip exactly.
std::uint64_t grid_seed(std::uint64_t seed) { return input_seed(seed, 0) >> 12; }

core::SchedulerFactory scheduler_factory(const std::string& name) {
  if (name == "fcfs") return [] { return std::make_unique<sched::FcfsScheduler>(); };
  if (name == "conservative") {
    return [] { return std::make_unique<sched::ConservativeBackfillScheduler>(); };
  }
  if (name == "carbon-easy") {
    return [] {
      return std::make_unique<sched::CarbonAwareEasyScheduler>(
          sched::CarbonAwareEasyScheduler::Config{},
          std::make_shared<carbon::PersistenceForecaster>());
    };
  }
  return [] { return std::make_unique<sched::EasyBackfillScheduler>(); };
}

/// The grid `greenhpc sweep` builds from the flags worker_argv() emits; a
/// worker started with those flags must derive the same config digest, or
/// its hello is refused and the run fails loudly.
core::SweepGrid make_grid(const Shape& s, std::uint64_t base_seed) {
  core::SweepGrid g;
  g.base.cluster.nodes = 64;
  if (s.tick_min > 0.0) g.base.cluster.tick = minutes(s.tick_min);
  g.base.trace_span = days(s.days + 3.0);
  g.base.workload.span = days(s.days);
  g.base.workload.job_count = s.jobs;
  g.base.workload.max_job_nodes = 32;
  g.base.seed = base_seed;
  g.regions = s.regions;
  g.intensity_kinds = s.kinds;
  g.cluster_nodes = s.nodes;
  g.seed_replicas = s.replicas;
  for (const auto& p : s.policies) g.policies.push_back({p, scheduler_factory(p), nullptr});
  return g;
}

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const auto& x : v) out += (out.empty() ? "" : ",") + x;
  return out;
}

std::vector<std::string> worker_argv(const Options& o, const Shape& s,
                                     std::uint64_t base_seed) {
  GREENHPC_REQUIRE(s.tick_min == 0.0, "sweep-worker flags cannot set the tick");
  std::vector<std::string> regions;
  for (const auto r : s.regions) regions.emplace_back(carbon::traits(r).code);
  std::vector<std::string> kinds;
  for (const auto k : s.kinds) {
    kinds.emplace_back(k == carbon::IntensityKind::Average ? "average" : "marginal");
  }
  std::vector<std::string> nodes;
  for (const int n : s.nodes) nodes.push_back(std::to_string(n));
  char days_buf[32];
  std::snprintf(days_buf, sizeof(days_buf), "%.17g", s.days);
  return {o.worker_bin, "sweep-worker", "--regions", join(regions), "--kinds", join(kinds),
          "--nodes", join(nodes), "--jobs", std::to_string(s.jobs), "--days", days_buf,
          "--replicas", std::to_string(s.replicas), "--sched", join(s.policies),
          "--seed", std::to_string(base_seed), "--threads", "1"};
}

/// Cold set-up of an in-process sweep: drop the cached assets, then
/// generate every trace and job list the grid's cases look up (the keys
/// SweepCaseRunner derives per case), so the run finds them all cached.
struct Prewarm {
  double trace_gen_s = 0.0;
  double workload_gen_s = 0.0;
};

Prewarm prewarm(const core::SweepGrid& g, SpanLog& log) {
  Prewarm p;
  carbon::TraceCache::global().clear();
  hpcsim::WorkloadCache::global().clear();
  for (int r = 0; r < g.seed_replicas; ++r) {
    const std::uint64_t seed = core::SweepEngine::replica_seed(g.base.seed, r);
    for (const auto region : g.regions) {
      for (const auto kind : g.intensity_kinds) {
        const auto t = Clock::now();
        Span s(log, "carbon.trace_gen");
        (void)carbon::TraceCache::global().get(region, kind, seed, seconds(0.0),
                                               g.base.trace_span, g.base.trace_step);
        p.trace_gen_s += since(t);
      }
    }
    for (const int nodes : g.cluster_nodes) {
      hpcsim::WorkloadConfig wl = g.base.workload;
      wl.max_job_nodes = std::min(wl.max_job_nodes, nodes);
      const auto t = Clock::now();
      Span s(log, "hpcsim.workload_gen");
      (void)hpcsim::WorkloadCache::global().get(wl, seed);
      p.workload_gen_s += since(t);
    }
  }
  return p;
}

/// Case-level timings of one in-process round.
struct CaseTimes {
  std::map<std::string, std::vector<double>> by_policy;
  std::vector<double> all;
  double fold_s = 0.0;
  double append_s = 0.0;
  std::size_t appends = 0;
};

struct SweepRound {
  double setup_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t digest = 0;
  std::size_t cases = 0;
  std::size_t quarantined = 0;
  Prewarm gen;
  double trace_hit_ratio = 0.0;
  double workload_hit_ratio = 0.0;
  Counters counters;
  CaseTimes times;
};

void finish_round(SweepRound& r, const Usage& u0, const Counters& c0) {
  r.cpu_s = usage_now().cpu_s() - u0.cpu_s();
  r.counters = Counters::now() - c0;
  r.trace_hit_ratio = hit_ratio(carbon::TraceCache::global().hits(),
                                carbon::TraceCache::global().misses());
  r.workload_hit_ratio = hit_ratio(hpcsim::WorkloadCache::global().hits(),
                                   hpcsim::WorkloadCache::global().misses());
}

/// One in-process round through the product path: SweepEngine::run with a
/// fresh journal (what `greenhpc sweep --journal DIR` does).
SweepRound engine_round(const Shape& s, std::uint64_t base_seed, util::ThreadPool& pool,
                        const std::string& dir) {
  SpanLog off;
  SweepRound r;
  const Usage u0 = usage_now();
  const Counters c0 = Counters::now();
  const auto t0 = Clock::now();
  const core::SweepGrid grid = make_grid(s, base_seed);
  r.gen = prewarm(grid, off);
  core::SweepJournal journal =
      core::SweepJournal::create(dir, grid.config_digest(), grid.case_count(), s.block);
  r.setup_s = since(t0);
  const auto t1 = Clock::now();
  core::SweepEngine::Options eo;
  eo.pool = &pool;
  eo.block = s.block;
  eo.journal = &journal;
  const core::SweepResult res = core::SweepEngine(eo).run(grid);
  r.run_s = since(t1);
  r.digest = res.digest;
  r.cases = res.cases;
  r.quarantined = res.failed_cases.size();
  finish_round(r, u0, c0);
  return r;
}

/// The same sweep driven call by call through the public pieces SweepEngine
/// is made of — SweepCaseRunner::run_case on the pool, the serial fold,
/// SweepJournal::append per block — so each call can be timed and, with
/// tracing on, wrapped in a span. Its digest must equal the engine's. With
/// an Attribution the tracer is drained after set-up and after each block;
/// run_s sums the block windows, so the drains stay outside it.
SweepRound decomposed_round(const Shape& s, std::uint64_t base_seed, util::ThreadPool& pool,
                            const std::string& dir, SpanLog& log, Attribution* attr) {
  SweepRound r;
  const Usage u0 = usage_now();
  const Counters c0 = Counters::now();
  const std::uint64_t w0 = obs::Tracer::now_ns();
  const auto t0 = Clock::now();
  std::unique_ptr<core::SweepGrid> grid;
  std::unique_ptr<core::SweepJournal> journal;
  {
    Span setup(log, "core.setup");
    grid = std::make_unique<core::SweepGrid>(make_grid(s, base_seed));
    r.gen = prewarm(*grid, log);
    Span j(log, "core.journal_create");
    journal = std::make_unique<core::SweepJournal>(
        core::SweepJournal::create(dir, grid->config_digest(), grid->case_count(), s.block));
  }
  r.setup_s = since(t0);
  if (attr != nullptr) attr->absorb(w0, obs::Tracer::now_ns());

  const core::SweepCaseRunner runner(*grid);
  core::SweepResult res;
  runner.init_result(res);
  const std::size_t n = runner.case_count();
  const std::size_t replicas = static_cast<std::size_t>(grid->seed_replicas);
  std::vector<core::SweepCaseOutcome> out(s.block);
  std::vector<double> case_s(s.block);
  for (std::size_t start = 0; start < n; start += s.block) {
    const std::size_t count = std::min(s.block, n - start);
    const std::uint64_t bw0 = obs::Tracer::now_ns();
    const auto tb = Clock::now();
    {
      Span block(log, "core.block");
      const std::uint32_t block_id = block.id();
      {
        Span pf(log, "util.parallel_for");
        pool.parallel_for_chunked(count, 1, [&](std::size_t i) {
          const auto tc = Clock::now();
          Span c(log, "core.run_case", start + i, block_id);
          out[i] = runner.run_case(start + i);
          case_s[i] = since(tc);
        });
      }
      auto t = Clock::now();
      {
        Span f(log, "core.fold");
        for (std::size_t i = 0; i < count; ++i) runner.fold(res, start + i, out[i]);
      }
      r.times.fold_s += since(t);
      core::SweepBlock rec;
      rec.start = start;
      rec.cases.assign(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(count));
      rec.digest_after = res.digest;
      t = Clock::now();
      {
        Span a(log, "core.journal_append");
        journal->append(rec);
      }
      r.times.append_s += since(t);
      ++r.times.appends;
    }
    r.run_s += since(tb);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t policy = ((start + i) / replicas) % grid->policies.size();
      r.times.by_policy[grid->policies[policy].label].push_back(case_s[i]);
      r.times.all.push_back(case_s[i]);
    }
    if (attr != nullptr) attr->absorb(bw0, obs::Tracer::now_ns());
  }
  r.digest = res.digest;
  r.cases = n;
  r.quarantined = res.failed_cases.size();
  finish_round(r, u0, c0);
  return r;
}

/// Resume a finished chained journal: every block must replay (nothing is
/// re-simulated) to the original digest. Returns the replay wall time.
double check_journal_replay(Report& rep, const Shape& s, std::uint64_t base_seed,
                            util::ThreadPool& pool, const std::string& dir,
                            std::uint64_t want) {
  const core::SweepGrid grid = make_grid(s, base_seed);
  const auto t0 = Clock::now();
  core::SweepJournal journal =
      core::SweepJournal::resume(dir, grid.config_digest(), grid.case_count());
  core::SweepEngine::Options eo;
  eo.pool = &pool;
  eo.journal = &journal;
  const core::SweepResult res = core::SweepEngine(eo).run(grid);
  const double dt = since(t0);
  rep.attempted += grid.case_count();
  rep.check(res.digest == want && res.replayed_cases == grid.case_count(),
            "journal resume replays all " + std::to_string(res.replayed_cases) + "/" +
                std::to_string(grid.case_count()) + " cases to the same digest",
            grid.case_count());
  return dt;
}

void put_case_times(Report& rep, const std::vector<SweepRound>& rounds) {
  std::map<std::string, std::vector<double>> by_policy;
  std::vector<double> all;
  for (const SweepRound& r : rounds) {
    for (const auto& [p, v] : r.times.by_policy) {
      by_policy[p].insert(by_policy[p].end(), v.begin(), v.end());
    }
    all.insert(all.end(), r.times.all.begin(), r.times.all.end());
  }
  for (const auto& [p, v] : by_policy) {
    rep.put("sched." + p + ".case_s", mean(v), "s", "mean of n=" + std::to_string(v.size()));
  }
  rep.put("core.case_s_p50", quantile(all, 0.5), "s");
  rep.put("core.case_s_p99", quantile(all, 0.99), "s");
  rep.put("core.case_samples", static_cast<double>(all.size()), "count");
}

void put_counters(Report& rep, const Counters& c) {
  rep.put("hpcsim.ticks", static_cast<double>(c.all_ticks()), "count");
  rep.put("hpcsim.span_ticks", static_cast<double>(c.get("sim.span_ticks")), "count");
  rep.put("hpcsim.span_completion_ticks",
          static_cast<double>(c.get("sim.span_completion_ticks")), "count");
  rep.put("hpcsim.fast_forward_ticks", static_cast<double>(c.get("sim.fast_forward_ticks")),
          "count");
  rep.put("hpcsim.spans", static_cast<double>(c.get("sim.spans")), "count");
  rep.put("sched.easy.backfilled", static_cast<double>(c.get("sched.easy.backfilled")), "count");
  rep.put("sched.carbon.held_jobs", static_cast<double>(c.get("sched.carbon.held_jobs")),
          "count");
}

void put_setup_layers(Report& rep, const std::vector<SweepRound>& rounds) {
  const std::string note = "n=" + std::to_string(rounds.size());
  rep.put("carbon.trace_gen_s",
          median(collect(rounds, [](const SweepRound& r) { return r.gen.trace_gen_s; })), "s",
          note);
  rep.put("carbon.trace_cache_hit_ratio", rounds.back().trace_hit_ratio, "1");
  rep.put("hpcsim.workload_gen_s",
          median(collect(rounds, [](const SweepRound& r) { return r.gen.workload_gen_s; })),
          "s", note);
  rep.put("hpcsim.workload_cache_hit_ratio", rounds.back().workload_hit_ratio, "1");
}

}  // namespace

Report run_sweep_backlog(const Options& o) {
  Report rep;
  const Shape shape = backlog_shape(o.tiny);
  const std::uint64_t base_seed = grid_seed(o.seed);
  util::ThreadPool pool(2);
  const int team = static_cast<int>(pool.size()) + 1;
  const std::string dir = o.workdir + "/backlog-journal";
  SpanLog log;

  const SweepRound warm = engine_round(shape, base_seed, pool, dir);
  rep.attempted += warm.cases;
  check_digest(rep, o, warm.digest, warm.cases);
  check_rounds(rep, std::vector<SweepRound>{warm}, warm.digest, "warm-up");

  std::vector<SweepRound> rounds;
  std::vector<SweepRound> traced;
  Attribution attr(team);
  // Each round's team runs on all CPUs but one, a different one each round;
  // its pool is created after pinning so the workers inherit the mask.
  CpuRotation rotation(static_cast<std::size_t>(team));
  const auto start = Clock::now();
  while (keep_going(start, o.seconds, rounds.size())) {
    rotation.next();
    util::ThreadPool round_pool(pool.size());
    if (!o.trace) {
      rounds.push_back(engine_round(shape, base_seed, round_pool, dir));
      rep.attempted += rounds.back().cases;
      continue;
    }
    rounds.push_back(decomposed_round(shape, base_seed, round_pool, dir, log, nullptr));
    rep.attempted += rounds.back().cases;
    log.set_enabled(true);
    obs::Tracer::set_enabled(true);
    traced.push_back(decomposed_round(shape, base_seed, round_pool, dir, log, &attr));
    obs::Tracer::set_enabled(false);
    log.set_enabled(false);
    rep.attempted += traced.back().cases;
  }
  check_rounds(rep, rounds, warm.digest, o.trace ? "call-by-call" : "engine");
  if (o.trace) check_rounds(rep, traced, warm.digest, "traced");
  const double replay_s = check_journal_replay(rep, shape, base_seed, pool, dir, warm.digest);

  const auto setup = collect(rounds, [](const SweepRound& r) { return r.setup_s; });
  const auto run = collect(rounds, [](const SweepRound& r) { return r.run_s; });
  if (!o.trace) {
    put_end_to_end(rep, setup, run, collect(rounds, [](const SweepRound& r) { return r.cpu_s; }),
                   static_cast<double>(warm.cases), rounds.back().counters.all_ticks(),
                   static_cast<double>(usage_now().self_rss_kb) / 1024.0,
                   "driver process (VmHWM)");
    return rep;
  }

  // --- per-layer table ---
  const double nt = static_cast<double>(traced.size());
  put_setup_layers(rep, rounds);
  put_case_times(rep, rounds);
  put_counters(rep, rounds.back().counters);
  const auto sim_run = attr.name("sim.run");
  rep.put("hpcsim.sim_s", sim_run.total_s / nt, "s", "sim.run spans, traced, thread-seconds");
  rep.put("hpcsim.ns_per_tick",
          1e9 * sim_run.total_s / nt / static_cast<double>(rounds.back().counters.all_ticks()),
          "ns", "traced");
  rep.put("core.fold_s",
          median(collect(rounds, [](const SweepRound& r) { return r.times.fold_s; })), "s");
  rep.put("core.journal_append_s",
          median(collect(rounds, [](const SweepRound& r) { return r.times.append_s; })), "s");
  rep.put("core.journal_appends", static_cast<double>(rounds.back().times.appends), "count");
  rep.put("core.journal_replay_s", replay_s, "s");
  rep.put("core.pool_efficiency", median(collect(rounds, [team](const SweepRound& r) {
            double busy = 0.0;
            for (const double c : r.times.all) busy += c;
            return busy / (r.run_s * team);
          })),
          "1", "sum of case times / (run_s x " + std::to_string(team) + " threads)");
  rep.put("util.pool_chunks", static_cast<double>(rounds.back().counters.get("pool.chunks")),
          "count");
  rep.put("util.pool_wakeups",
          static_cast<double>(rounds.back().counters.get("pool.worker_wakeups")), "count");
  rep.put("obs.trace_overhead_x",
          fastest(collect(traced, [](const SweepRound& r) { return r.run_s; })) / fastest(run),
          "x", "traced / untraced run_s, n=" + std::to_string(traced.size()));
  rep.put("obs.trace_events", static_cast<double>(attr.events()) / nt, "count");
  put_attribution(rep, attr, nt);
  write_spans(rep, log, o);
  return rep;
}

namespace {

struct FleetRound {
  double setup_s = 0.0;
  double run_s = 0.0;
  double teardown_s = 0.0;
  double cpu_s = 0.0;
  double worker_cpu_s = 0.0;
  std::uint64_t digest = 0;
  std::size_t cases = 0;
  std::size_t quarantined = 0;
  core::SweepCoordinator::Stats stats;
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

core::SweepCoordinator::Options fleet_options(const Options& o, const Shape& s,
                                              std::uint64_t base_seed,
                                              util::ThreadPool& pool, const std::string& dir) {
  core::SweepCoordinator::Options co;
  co.workers = 2;
  co.worker_argv = worker_argv(o, s, base_seed);
  co.journal_dir = dir;
  co.block = s.block;
  co.pool = &pool;
  return co;
}

/// One fleet round. Set-up is the coordinator's own (caches cleared, grid
/// built, a fresh shard directory) plus run() up to the first folded
/// block: spawning both workers, their hellos and the first block's round
/// trip. run_s is from that first fold to run() returning, so it includes
/// the shutdown; teardown_s is from the last fold to the return. CPU covers
/// this process and both workers (reaped before run() returns).
FleetRound fleet_round(const Options& o, const Shape& s, std::uint64_t base_seed,
                       util::ThreadPool& pool, const std::string& dir, bool ship,
                       SpanLog& log, Attribution* attr) {
  FleetRound r;
  const Usage u0 = usage_now();
  const std::uint64_t w0 = obs::Tracer::now_ns();
  const auto t0 = Clock::now();
  std::unique_ptr<core::SweepGrid> grid;
  {
    Span setup(log, "core.setup");
    carbon::TraceCache::global().clear();
    hpcsim::WorkloadCache::global().clear();
    grid = std::make_unique<core::SweepGrid>(make_grid(s, base_seed));
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  const double local_setup_s = since(t0);
  core::SweepCoordinator::Options co = fleet_options(o, s, base_seed, pool, dir);
  co.ship_stats = ship;
  Clock::time_point first{};
  Clock::time_point last{};
  bool folded = false;
  co.progress = [&](std::size_t, std::size_t) {
    last = Clock::now();
    if (!folded) first = last;
    folded = true;
  };
  core::SweepCoordinator coord(std::move(co));
  const auto t1 = Clock::now();
  core::SweepResult res;
  {
    Span run(log, "fabric.coordinator_run");
    res = coord.run(*grid);
  }
  const auto t2 = Clock::now();
  if (!folded) first = last = t2;
  r.setup_s = local_setup_s + seconds_between(t1, first);
  r.run_s = seconds_between(first, t2);
  r.teardown_s = seconds_between(last, t2);
  const Usage u1 = usage_now();
  r.cpu_s = u1.cpu_s() - u0.cpu_s();
  r.worker_cpu_s = u1.child_cpu_s - u0.child_cpu_s;
  r.digest = res.digest;
  r.cases = res.cases;
  r.quarantined = res.failed_cases.size();
  r.stats = coord.stats();
  if (attr != nullptr) attr->absorb(w0, obs::Tracer::now_ns());
  return r;
}

/// Spawn `workers` sweep-worker processes and wait for every hello, timed
/// through the public subprocess and protocol calls; then shut them down.
/// Returns -1 when a worker did not say hello.
double spawn_hello(const Options& o, const Shape& s, std::uint64_t base_seed, int workers) {
  const std::vector<std::string> argv = worker_argv(o, s, base_seed);
  const auto t0 = Clock::now();
  std::vector<util::Subprocess> procs;
  for (int k = 0; k < workers; ++k) procs.push_back(util::Subprocess::spawn(argv));
  int hellos = 0;
  for (auto& p : procs) {
    util::LineChannel channel(p.stdout_fd());
    std::string line;
    while (!channel.next_line(line)) {
      const auto f = channel.fill();
      if (f == util::LineChannel::Fill::Eof || f == util::LineChannel::Fill::Error) break;
    }
    hellos += core::parse_message(line).kind == core::MsgKind::Hello ? 1 : 0;
  }
  const double dt = since(t0);
  for (auto& p : procs) {
    (void)util::write_all(p.stdin_fd(), core::encode_shutdown() + "\n");
    p.close_stdin();
  }
  for (auto& p : procs) (void)p.wait();
  return hellos == workers ? dt : -1.0;
}

struct ProtocolTimes {
  double encode_us = 0.0;
  double parse_us = 0.0;
  double append_s = 0.0;
  std::size_t blocks = 0;
};

/// Time the wire encoder and parser on the block records a fleet round
/// journaled (loaded back from its shards), and the shard journal append a
/// worker makes per block, re-appending those records to a scratch shard.
ProtocolTimes time_protocol(Report& rep, const Shape& s, std::uint64_t base_seed,
                            const std::string& shard_dir, const std::string& scratch) {
  ProtocolTimes pt;
  const core::SweepGrid grid = make_grid(s, base_seed);
  const auto load =
      core::SweepJournal::load_shards(shard_dir, grid.config_digest(), grid.case_count());
  const auto& blocks = load.blocks;
  pt.blocks = blocks.size();
  const std::size_t want_blocks = (grid.case_count() + s.block - 1) / s.block;
  if (blocks.empty()) {
    rep.check(false, "fleet shards hold no block records", 0);
    return pt;
  }
  constexpr int kReps = 20;
  std::vector<std::string> lines(blocks.size());
  auto t = Clock::now();
  for (int k = 0; k < kReps; ++k) {
    for (std::size_t i = 0; i < blocks.size(); ++i) lines[i] = core::encode_block(blocks[i]);
  }
  const double per_block = 1e6 / (kReps * static_cast<double>(blocks.size()));
  pt.encode_us = since(t) * per_block;
  bool ok = true;
  t = Clock::now();
  for (int k = 0; k < kReps; ++k) {
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const core::Message m = core::parse_message(lines[i]);
      ok = ok && m.kind == core::MsgKind::Block && m.block.start == blocks[i].start &&
           core::sweep_block_digest(m.block) == blocks[i].digest_after;
    }
  }
  pt.parse_us = since(t) * per_block;
  rep.check(ok && blocks.size() == want_blocks,
            "wire round trip of " + std::to_string(blocks.size()) + "/" +
                std::to_string(want_blocks) + " journaled block records",
            ok ? 0 : grid.case_count());

  fs::remove_all(scratch);
  core::SweepJournal shard = core::SweepJournal::create_shard(
      scratch, core::SweepJournal::shard_file_name(0, "perfbench"), grid.config_digest(),
      grid.case_count(), s.block);
  t = Clock::now();
  for (const auto& b : blocks) shard.append(b);
  pt.append_s = since(t);
  return pt;
}

/// Restart a coordinator on a finished run's shards: every block must be
/// replayed (no worker spawned) to the original digest.
double check_shard_replay(Report& rep, const Options& o, const Shape& s,
                          std::uint64_t base_seed, util::ThreadPool& pool,
                          const std::string& dir, std::uint64_t want) {
  const core::SweepGrid grid = make_grid(s, base_seed);
  core::SweepCoordinator::Options co = fleet_options(o, s, base_seed, pool, dir);
  co.resume = true;
  core::SweepCoordinator coord(std::move(co));
  const auto t0 = Clock::now();
  const core::SweepResult res = coord.run(grid);
  const double dt = since(t0);
  const std::size_t blocks = (grid.case_count() + s.block - 1) / s.block;
  rep.attempted += grid.case_count();
  rep.check(res.digest == want && coord.stats().replayed_blocks == blocks,
            "coordinator restart replays " + std::to_string(coord.stats().replayed_blocks) +
                "/" + std::to_string(blocks) + " shard blocks to the same digest",
            grid.case_count());
  return dt;
}

}  // namespace

Report run_sweep_fleet(const Options& o) {
  Report rep;
  const Shape shape = fleet_shape(o.tiny);
  const std::uint64_t base_seed = grid_seed(o.seed);
  util::ThreadPool pool(2);
  constexpr int kWorkers = 2;
  const std::string dir = o.workdir + "/fleet-shards";
  const std::string inproc_dir = o.workdir + "/fleet-inprocess-journal";
  SpanLog log;

  const FleetRound warm = fleet_round(o, shape, base_seed, pool, dir, true, log, nullptr);
  rep.attempted += warm.cases;
  check_digest(rep, o, warm.digest, warm.cases);
  // The same grid in one process: the digest must not depend on the
  // transport, and its tick count is the fleet's simulated work.
  const SweepRound inproc = engine_round(shape, base_seed, pool, inproc_dir);
  rep.attempted += inproc.cases;
  rep.check(inproc.digest == warm.digest,
            "fleet digest equals the in-process digest of the same grid", warm.cases);

  std::vector<FleetRound> rounds;
  std::vector<FleetRound> traced;
  std::vector<FleetRound> unshipped;
  std::vector<SweepRound> inprocess;
  Attribution attr(1);
  // The coordinator and its two workers (which inherit the mask at fork)
  // run on all CPUs but one, a different one each round.
  CpuRotation rotation(1 + kWorkers);
  const auto start = Clock::now();
  while (keep_going(start, o.seconds, rounds.size())) {
    rotation.next();
    rounds.push_back(fleet_round(o, shape, base_seed, pool, dir, true, log, nullptr));
    rep.attempted += rounds.back().cases;
    if (!o.trace) continue;
    log.set_enabled(true);
    obs::Tracer::set_enabled(true);
    traced.push_back(fleet_round(o, shape, base_seed, pool, dir, true, log, &attr));
    obs::Tracer::set_enabled(false);
    log.set_enabled(false);
    unshipped.push_back(fleet_round(o, shape, base_seed, pool, dir, false, log, nullptr));
    inprocess.push_back(engine_round(shape, base_seed, pool, inproc_dir));
    rep.attempted += traced.back().cases + unshipped.back().cases + inprocess.back().cases;
  }
  check_rounds(rep, rounds, warm.digest, "fleet");
  if (o.trace) {
    check_rounds(rep, traced, warm.digest, "traced fleet");
    check_rounds(rep, unshipped, warm.digest, "fleet without obs shipping");
    check_rounds(rep, inprocess, warm.digest, "in-process");
  }
  const double replay_s =
      check_shard_replay(rep, o, shape, base_seed, pool, dir, warm.digest);

  const auto run = collect(rounds, [](const FleetRound& r) { return r.run_s; });
  if (!o.trace) {
    const Usage u = usage_now();
    put_end_to_end(rep, collect(rounds, [](const FleetRound& r) { return r.setup_s; }), run,
                   collect(rounds, [](const FleetRound& r) { return r.cpu_s; }),
                   static_cast<double>(warm.cases), inproc.counters.all_ticks(),
                   static_cast<double>(u.self_rss_kb + kWorkers * u.child_rss_kb) / 1024.0,
                   "coordinator VmHWM + 2 x largest worker ru_maxrss");
    return rep;
  }

  // --- per-layer table ---
  const double nt = static_cast<double>(traced.size());
  const std::string note = "n=" + std::to_string(rounds.size()) + " rounds";
  // Case-level layers come from the same grid run call by call in process.
  SpanLog off;
  const SweepRound calls =
      decomposed_round(shape, base_seed, pool, inproc_dir, off, nullptr);
  rep.attempted += calls.cases;
  check_rounds(rep, std::vector<SweepRound>{calls}, warm.digest, "call-by-call in-process");
  put_setup_layers(rep, std::vector<SweepRound>{calls});
  put_case_times(rep, std::vector<SweepRound>{calls});
  put_counters(rep, calls.counters);

  std::vector<double> hello;
  for (int i = 0; i < 5; ++i) hello.push_back(spawn_hello(o, shape, base_seed, kWorkers));
  rep.check(*std::min_element(hello.begin(), hello.end()) >= 0.0,
            "every spawned worker says hello", 0);
  rep.put("fabric.spawn_hello_s", median(hello), "s",
          "spawn 2 workers until both hellos, median of " + std::to_string(hello.size()));
  const ProtocolTimes pt =
      time_protocol(rep, shape, base_seed, dir, o.workdir + "/fleet-append");
  rep.put("fabric.encode_block_us", pt.encode_us, "us", "per block record");
  rep.put("fabric.parse_block_us", pt.parse_us, "us", "per block record");
  rep.put("core.journal_append_s", pt.append_s, "s", "one round's shard appends, re-timed");
  rep.put("core.journal_appends", static_cast<double>(pt.blocks), "count");

  const auto stat = [&](auto f) { return median(collect(rounds, f)); };
  std::size_t blocks = 0;
  for (const auto& w : rounds.back().stats.workers) blocks += w.blocks;
  rep.put("fabric.rtt_p50_s", stat([](const FleetRound& r) { return r.stats.rtt_p50_s; }), "s",
          note);
  rep.put("fabric.rtt_p99_s", stat([](const FleetRound& r) { return r.stats.rtt_p99_s; }), "s",
          note);
  rep.put("fabric.rtt_samples",
          stat([](const FleetRound& r) { return static_cast<double>(r.stats.stat_batches); }),
          "count", "one per stat line");
  rep.put("fabric.block_s_p50",
          stat([](const FleetRound& r) { return r.stats.block_seconds_p50_s; }), "s", note);
  rep.put("fabric.block_s_p99",
          stat([](const FleetRound& r) { return r.stats.block_seconds_p99_s; }), "s", note);
  rep.put("fabric.block_samples", static_cast<double>(blocks), "count", "blocks per round");
  rep.put("fabric.max_lease_age_s",
          stat([](const FleetRound& r) { return r.stats.max_lease_age_s; }), "s", note);
  rep.put("fabric.teardown_s", stat([](const FleetRound& r) { return r.teardown_s; }), "s", note);
  rep.put("fabric.worker_cpu_s", stat([](const FleetRound& r) { return r.worker_cpu_s; }), "s",
          note);
  rep.put("fabric.cpu_over_inprocess_x",
          fastest(collect(rounds, [](const FleetRound& r) { return r.cpu_s; })) /
              fastest(collect(inprocess, [](const SweepRound& r) { return r.cpu_s; })),
          "x", "fleet CPU / in-process CPU (2-worker pool), same grid");
  rep.put("fabric.shard_replay_s", replay_s, "s");
  std::size_t reassigned = 0;
  std::size_t deaths = 0;
  std::size_t misses = 0;
  std::size_t dups = 0;
  for (const auto* set : {&rounds, &traced, &unshipped}) {
    for (const FleetRound& r : *set) {
      reassigned += r.stats.blocks_reassigned;
      deaths += r.stats.worker_deaths;
      misses += r.stats.heartbeat_misses;
      dups += r.stats.duplicate_block_records;
    }
  }
  rep.put("fabric.blocks_reassigned", static_cast<double>(reassigned), "count", "all rounds");
  rep.put("fabric.worker_deaths", static_cast<double>(deaths), "count", "all rounds");
  rep.put("fabric.heartbeat_misses", static_cast<double>(misses), "count", "all rounds");
  rep.put("fabric.duplicate_block_records", static_cast<double>(dups), "count", "all rounds");
  rep.put("obs.trace_overhead_x",
          fastest(collect(traced, [](const FleetRound& r) { return r.run_s; })) / fastest(run),
          "x", "traced / untraced run_s, n=" + std::to_string(traced.size()));
  rep.put("obs.ship_overhead_x",
          fastest(run) / fastest(collect(unshipped, [](const FleetRound& r) { return r.run_s; })),
          "x", "ship_stats on / off run_s, n=" + std::to_string(unshipped.size()));
  rep.put("obs.stat_batches",
          stat([](const FleetRound& r) { return static_cast<double>(r.stats.stat_batches); }),
          "count");
  rep.put("obs.trace_events", static_cast<double>(attr.events()) / nt, "count");
  put_attribution(rep, attr, nt);
  write_spans(rep, log, o);
  return rep;
}

}  // namespace perfbench
