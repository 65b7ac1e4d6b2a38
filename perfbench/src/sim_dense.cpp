// Workload sim_dense: one thread calls Simulator::run directly on long,
// completion-bound dense scenarios. Many single-node jobs arrive in hourly
// waves on a 15 s tick; between waves the queue is empty, so the span
// kernel and its in-span completions do almost all the work and the
// policies are rarely called. No sweep, journal or fabric code runs: a
// simulator-kernel change shows here, a sweep or fabric change must not.

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "attribution.hpp"
#include "carbon/trace_cache.hpp"
#include "common.hpp"
#include "core/scenario.hpp"
#include "hpcsim/simulator.hpp"
#include "hpcsim/workload.hpp"
#include "obs/trace.hpp"
#include "sched/easy_backfill.hpp"
#include "sched/fcfs.hpp"

namespace perfbench {
namespace {

using namespace greenhpc;

constexpr const char* kPolicies[] = {"fcfs", "easy"};
constexpr std::size_t kPolicyCount = 2;

std::vector<core::ScenarioConfig> dense_scenarios(const Options& o) {
  const int count = o.tiny ? 2 : 16;
  std::vector<core::ScenarioConfig> out;
  for (int k = 0; k < count; ++k) {
    core::ScenarioConfig cfg;
    cfg.cluster.nodes = o.tiny ? 64 : 512;
    cfg.cluster.node_tdp = watts(500.0);
    cfg.cluster.node_idle = watts(110.0);
    cfg.cluster.tick = seconds(15.0);
    cfg.region = k % 2 == 0 ? carbon::Region::Germany : carbon::Region::France;
    cfg.trace_span = days(4.0);
    cfg.trace_step = minutes(15.0);
    cfg.workload.job_count = o.tiny ? 250 : 2000;
    cfg.workload.span = days(1.5);
    cfg.workload.arrival_quantum = minutes(60.0);
    cfg.workload.max_job_nodes = 1;
    cfg.workload.runtime_mean = minutes(300.0);
    cfg.workload.runtime_max = hours(12.0);
    cfg.workload.node_power_mean = watts(420.0);
    cfg.workload.node_power_limit = watts(500.0);
    cfg.seed = input_seed(o.seed, k);
    out.push_back(cfg);
  }
  return out;
}

std::unique_ptr<hpcsim::SchedulingPolicy> make_policy(std::size_t p) {
  if (p == 0) return std::make_unique<sched::FcfsScheduler>();
  return std::make_unique<sched::EasyBackfillScheduler>();
}

/// FNV-1a over the headline totals and every job's finish, energy and
/// carbon: any divergence between runs or engines shows up here.
std::uint64_t result_digest(const hpcsim::SimulationResult& r) {
  std::uint64_t h = kFnvBasis;
  fnv_mix(h, r.total_carbon.grams());
  fnv_mix(h, r.total_energy.joules());
  fnv_mix(h, r.makespan.seconds());
  for (const auto& j : r.jobs) {
    fnv_mix(h, j.finish.seconds());
    fnv_mix(h, j.energy.joules());
    fnv_mix(h, j.carbon.grams());
  }
  return h;
}

struct Round {
  double setup_s = 0.0;
  double run_s = 0.0;
  double trace_gen_s = 0.0;
  double workload_gen_s = 0.0;
  double cpu_s = 0.0;
  std::array<double, kPolicyCount> policy_s{};
  std::array<int, kPolicyCount> policy_n{};
  std::vector<double> case_s;
  std::uint64_t ticks = 0;
  std::uint64_t digest = kFnvBasis;
  std::size_t cases = 0;
  std::size_t quarantined = 0;  ///< always 0: Simulator::run has no quarantine
  double trace_hit_ratio = 0.0;
  double workload_hit_ratio = 0.0;
  Counters counters;
};

/// One round: cold set-up (caches cleared, every trace and job list
/// generated, one ScenarioRunner per scenario), then every scenario ×
/// policy through Simulator::run. With an
/// Attribution the tracer is drained after set-up and after each case, and
/// those drains are outside every timed interval.
Round run_round(const std::vector<core::ScenarioConfig>& scen, bool reference,
                SpanLog& log, Attribution* attr) {
  Round r;
  const Usage u0 = usage_now();
  const Counters c0 = Counters::now();
  std::vector<std::shared_ptr<const util::TimeSeries>> traces;
  std::vector<std::shared_ptr<const std::vector<hpcsim::JobSpec>>> jobs;

  const std::uint64_t w0 = obs::Tracer::now_ns();
  const auto t0 = Clock::now();
  {
    Span setup(log, "core.setup");
    carbon::TraceCache::global().clear();
    hpcsim::WorkloadCache::global().clear();
    for (const auto& c : scen) {
      auto t = Clock::now();
      {
        Span s(log, "carbon.trace_gen");
        (void)carbon::TraceCache::global().get(c.region, c.intensity_kind, c.seed,
                                               seconds(0.0), c.trace_span, c.trace_step);
      }
      r.trace_gen_s += since(t);
      t = Clock::now();
      {
        Span s(log, "hpcsim.workload_gen");
        (void)hpcsim::WorkloadCache::global().get(c.workload, c.seed);
      }
      r.workload_gen_s += since(t);
      // The runner resolves both assets through the caches (hits now) and
      // hands out the shared pointers the simulations run on.
      Span s(log, "core.scenario_runner");
      const core::ScenarioRunner runner(c);
      traces.push_back(runner.trace_ptr());
      jobs.push_back(runner.jobs_ptr());
    }
  }
  r.setup_s = since(t0);
  if (attr != nullptr) attr->absorb(w0, obs::Tracer::now_ns());

  for (std::size_t k = 0; k < scen.size(); ++k) {
    for (std::size_t p = 0; p < kPolicyCount; ++p) {
      const std::uint64_t cw0 = obs::Tracer::now_ns();
      const auto tc = Clock::now();
      hpcsim::Simulator::Config cfg;
      cfg.cluster = scen[k].cluster;
      cfg.carbon_intensity = traces[k];
      cfg.reference_mode = reference;
      const auto policy = make_policy(p);
      hpcsim::SimulationResult res;
      const auto ts = Clock::now();
      {
        Span s(log, "hpcsim.simulator_run", k * kPolicyCount + p);
        hpcsim::Simulator sim(cfg, jobs[k]);
        res = sim.run(*policy);
      }
      const double sim_s = since(ts);
      fnv_mix_u64(r.digest, result_digest(res));
      r.ticks += res.system_power.size();
      r.policy_s[p] += sim_s;
      ++r.policy_n[p];
      r.case_s.push_back(sim_s);
      r.run_s += since(tc);
      ++r.cases;
      if (attr != nullptr) attr->absorb(cw0, obs::Tracer::now_ns());
    }
  }
  r.cpu_s = usage_now().cpu_s() - u0.cpu_s();
  r.counters = Counters::now() - c0;
  r.trace_hit_ratio = hit_ratio(carbon::TraceCache::global().hits(),
                                carbon::TraceCache::global().misses());
  r.workload_hit_ratio = hit_ratio(hpcsim::WorkloadCache::global().hits(),
                                   hpcsim::WorkloadCache::global().misses());
  return r;
}

}  // namespace

Report run_sim_dense(const Options& o) {
  Report rep;
  const auto scen = dense_scenarios(o);
  const std::size_t cases = scen.size() * kPolicyCount;
  SpanLog log;

  // Warm-up: pages in code and data; its digest is what every timed round
  // must repeat.
  const Round warm = run_round(scen, false, log, nullptr);
  rep.attempted += cases;
  check_digest(rep, o, warm.digest, cases);

  std::vector<Round> rounds;
  std::vector<Round> traced;
  Attribution attr(1);
  const auto start = Clock::now();
  CpuRotation rotation(1);
  while (keep_going(start, o.seconds, rounds.size())) {
    rotation.next();
    rounds.push_back(run_round(scen, false, log, nullptr));
    rep.attempted += cases;
    if (o.trace) {
      log.set_enabled(true);
      obs::Tracer::set_enabled(true);
      traced.push_back(run_round(scen, false, log, &attr));
      obs::Tracer::set_enabled(false);
      log.set_enabled(false);
      rep.attempted += cases;
    }
  }
  check_rounds(rep, rounds, warm.digest, "untraced");
  if (o.trace) check_rounds(rep, traced, warm.digest, "traced");

  // The tick-exact reference loop must reproduce the fast engine bit for bit.
  std::vector<Round> refs;
  for (int i = 0; i < (o.trace ? 3 : 1); ++i) {
    refs.push_back(run_round(scen, true, log, nullptr));
    rep.attempted += cases;
  }
  check_rounds(rep, refs, warm.digest, "reference_mode");

  const std::string note = "n=" + std::to_string(rounds.size()) + " rounds of " +
                           std::to_string(cases) + " cases";
  if (!o.trace) {
    put_end_to_end(rep, collect(rounds, [](const Round& r) { return r.setup_s; }),
                   collect(rounds, [](const Round& r) { return r.run_s; }),
                   collect(rounds, [](const Round& r) { return r.cpu_s; }),
                   static_cast<double>(cases), rounds.back().ticks,
                   static_cast<double>(usage_now().self_rss_kb) / 1024.0,
                   "driver process (VmHWM)");
    return rep;
  }

  // --- per-layer table ---
  const Round& last = rounds.back();
  const double nt = static_cast<double>(traced.size());
  rep.put("carbon.trace_gen_s",
          median(collect(rounds, [](const Round& r) { return r.trace_gen_s; })), "s", note);
  rep.put("carbon.trace_cache_hit_ratio", last.trace_hit_ratio, "1");
  rep.put("hpcsim.workload_gen_s",
          median(collect(rounds, [](const Round& r) { return r.workload_gen_s; })), "s", note);
  rep.put("hpcsim.workload_cache_hit_ratio", last.workload_hit_ratio, "1");
  const auto sim_s = collect(rounds, [](const Round& r) {
    return r.policy_s[0] + r.policy_s[1];
  });
  rep.put("hpcsim.sim_s", median(sim_s), "s", note);
  rep.put("hpcsim.ns_per_tick",
          median(collect(rounds, [](const Round& r) {
            return 1e9 * (r.policy_s[0] + r.policy_s[1]) / static_cast<double>(r.ticks);
          })),
          "ns", note);
  rep.put("hpcsim.ticks", static_cast<double>(last.counters.all_ticks()), "count");
  rep.put("hpcsim.span_ticks", static_cast<double>(last.counters.get("sim.span_ticks")), "count");
  rep.put("hpcsim.span_completion_ticks",
          static_cast<double>(last.counters.get("sim.span_completion_ticks")), "count");
  rep.put("hpcsim.fast_forward_ticks",
          static_cast<double>(last.counters.get("sim.fast_forward_ticks")), "count");
  rep.put("hpcsim.spans", static_cast<double>(last.counters.get("sim.spans")), "count");
  rep.check(last.counters.all_ticks() == last.ticks,
            "tick-path counters add up to the simulated ticks (" +
                std::to_string(last.counters.all_ticks()) + " vs " +
                std::to_string(last.ticks) + ")",
            0);
  const auto ref_sim = collect(refs, [](const Round& r) { return r.policy_s[0] + r.policy_s[1]; });
  rep.put("hpcsim.fast_over_reference_x", fastest(ref_sim) / fastest(sim_s), "x",
          "reference_mode sim_s / fast sim_s, same inputs, n=" + std::to_string(refs.size()));
  for (std::size_t p = 0; p < kPolicyCount; ++p) {
    rep.put(std::string("sched.") + kPolicies[p] + ".case_s",
            median(collect(rounds, [p](const Round& r) { return r.policy_s[p] / r.policy_n[p]; })),
            "s", note);
  }
  rep.put("sched.easy.backfilled",
          static_cast<double>(last.counters.get("sched.easy.backfilled")), "count");
  std::vector<double> all_cases;
  for (const Round& r : rounds) all_cases.insert(all_cases.end(), r.case_s.begin(), r.case_s.end());
  rep.put("core.case_s_p50", quantile(all_cases, 0.5), "s");
  rep.put("core.case_s_p99", quantile(all_cases, 0.99), "s");
  rep.put("core.case_samples", static_cast<double>(all_cases.size()), "count");
  const auto run = collect(rounds, [](const Round& r) { return r.run_s; });
  const auto run_traced = collect(traced, [](const Round& r) { return r.run_s; });
  rep.put("obs.trace_overhead_x", fastest(run_traced) / fastest(run), "x",
          "traced / untraced run_s, n=" + std::to_string(traced.size()));
  rep.put("obs.trace_events", static_cast<double>(attr.events()) / nt, "count");
  put_attribution(rep, attr, nt);
  write_spans(rep, log, o);
  return rep;
}

}  // namespace perfbench
