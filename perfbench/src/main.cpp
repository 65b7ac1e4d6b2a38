// greenhpc benchmark driver.
//
//   greenhpc_perfbench --workload sim_dense|sweep_backlog|sweep_fleet
//                      --seed N --seconds S --trace 0|1
//                      --worker-bin PATH --workdir DIR [--spans-out FILE] [--tiny]
//
// Generates the workload's inputs from --seed, times rounds of it for
// --seconds, checks every output (digest pins, round-to-round repeats,
// fast vs reference engine, fleet vs in-process, journal and shard
// replay), and prints a human table followed by one line
// `PERFBENCH_RESULT {...}` holding every metric by name with its unit.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// attribution and reports the per-layer table. perfbench/run.py builds
// this driver and turns that line into the benchmark's result.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>

#include "common.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {

/// Digests pinned per workload, size and seed. Seeds 1-20 were used while
/// sizing the benchmark; seed 1001 is held out: check a claimed gain on it
/// too. A program change that alters any simulated result changes these,
/// and the run reports it as incorrect.
struct Pin {
  const char* workload;
  bool tiny;
  std::uint64_t seed;
  std::uint64_t digest;
};

constexpr Pin kPins[] = {
#include "pins.inc"
};

}  // namespace

void check_digest(Report& rep, const Options& o, std::uint64_t digest, std::uint64_t cases) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "info  %s digest %016llx", o.workload.c_str(),
                static_cast<unsigned long long>(digest));
  rep.checks.push_back(buf);
  for (const Pin& p : kPins) {
    if (o.workload == p.workload && o.tiny == p.tiny && o.seed == p.seed) {
      std::snprintf(buf, sizeof(buf), "digest equals the pin %016llx for seed %llu",
                    static_cast<unsigned long long>(p.digest),
                    static_cast<unsigned long long>(o.seed));
      rep.check(digest == p.digest, buf, cases);
      return;
    }
  }
  rep.checks.push_back("info  no digest pinned for seed " + std::to_string(o.seed) +
                       "; relational checks only");
}

std::string timing_note(const std::vector<double>& v) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "fastest of %zu rounds; median %.6g, IQR %.6g..%.6g",
                v.size(), median(v), quantile(v, 0.25), quantile(v, 0.75));
  return buf;
}

void put_end_to_end(Report& rep, const std::vector<double>& setup,
                    const std::vector<double>& run, const std::vector<double>& cpu,
                    double cases, std::uint64_t ticks, double rss_mb,
                    const std::string& rss_note) {
  std::vector<double> cpu_case;
  for (const double c : cpu) cpu_case.push_back(c / cases);
  const double run_s = fastest(run);
  const std::string note = "from run_s; " + std::to_string(static_cast<long>(cases)) +
                           " cases, " + std::to_string(ticks) + " ticks per round";
  rep.put("setup_s", fastest(setup), "s", timing_note(setup));
  rep.put("run_s", run_s, "s", timing_note(run));
  rep.put("cases_per_s", cases / run_s, "1/s", note);
  rep.put("sim_ticks_per_s", static_cast<double>(ticks) / run_s, "1/s", note);
  rep.put("cpu_s_per_case", fastest(cpu_case), "s", timing_note(cpu_case));
  rep.put("peak_rss_mb", rss_mb, "MB", rss_note);
}

}  // namespace perfbench

namespace {

/// Host steal ticks and all ticks so far (/proc/stat "cpu" line): how much
/// of the run this VM's vCPUs waited on the host, shown beside the results.
std::pair<double, double> steal_and_total() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  double v[8] = {};
  const int got = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1], &v[2],
                              &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (got != 8) return {0.0, 0.0};
  double total = 0.0;
  for (const double x : v) total += x;
  return {v[7], total};
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: greenhpc_perfbench --workload sim_dense|sweep_backlog|sweep_fleet "
               "--seed N --seconds S --trace 0|1 --worker-bin PATH --workdir DIR "
               "[--spans-out FILE] [--tiny]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--worker-bin") {
      o.worker_bin = val;
    } else if (key == "--workdir") {
      o.workdir = val;
    } else if (key == "--spans-out") {
      o.spans_out = val;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (o.workdir.empty() || o.worker_bin.empty() || !(o.seconds > 0.0)) {
    return usage("--workdir, --worker-bin and a positive --seconds are required");
  }
  // Traced rounds drain the tracer between blocks; these rings hold one
  // block's events per thread.
  greenhpc::obs::Tracer::set_buffer_capacity(std::size_t{1} << 18);

  const auto steal0 = steal_and_total();
  Report rep;
  try {
    std::filesystem::create_directories(o.workdir);
    if (o.workload == "sim_dense") {
      rep = run_sim_dense(o);
    } else if (o.workload == "sweep_backlog") {
      rep = run_sweep_backlog(o);
    } else if (o.workload == "sweep_fleet") {
      rep = run_sweep_fleet(o);
    } else {
      return usage(("unknown workload " + o.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "greenhpc_perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("%s seed=%llu trace=%d%s\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
              o.tiny ? " (tiny)" : "");
  for (const auto& m : rep.metrics) {
    if (!std::isfinite(m.value)) rep.check(false, "metric " + m.name + " is finite", 0);
  }
  for (const auto& c : rep.checks) std::printf("  %s\n", c.c_str());
  const auto steal1 = steal_and_total();
  if (steal1.second > steal0.second) {
    std::printf("  info  host steal during the run: %.1f%% of vCPU time\n",
                100.0 * (steal1.first - steal0.first) / (steal1.second - steal0.second));
  }
  for (const auto& m : rep.metrics) {
    std::printf("  %-34s %16.9g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  std::printf("  %-34s %16.9g %-6s %llu of %llu cases\n", "failed_case_ratio",
              rep.attempted ? static_cast<double>(rep.failed) / rep.attempted : 0.0, "1",
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted));
  std::string json = "{\"correct\": ";
  json += rep.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& m : rep.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("PERFBENCH_RESULT %s\n", json.c_str());
  std::fflush(stdout);
  std::error_code ec;
  std::filesystem::remove_all(o.workdir, ec);
  return 0;
}
