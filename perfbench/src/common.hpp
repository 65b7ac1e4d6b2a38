#pragma once
// Shared helpers of the benchmark driver: options, clocks, CPU and RSS
// sampling, order statistics, counter snapshots, digests and the report
// that main() prints.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          ///< reduced sizes, for the self-test
  std::string worker_bin;     ///< the `greenhpc` CLI (sweep-worker host)
  std::string workdir;        ///< scratch directory for journals
  std::string spans_out;      ///< JSONL file for the benchmark's own spans
};

/// The k-th generated input seed of a run: a splitmix64 stream keyed by the
/// workload seed, so every generated input depends on --seed only.
inline std::uint64_t input_seed(std::uint64_t seed, int k) {
  std::uint64_t state = seed ^ 0x5eedf00dcafeull;
  std::uint64_t out = 0;
  for (int i = 0; i <= k; ++i) out = greenhpc::util::splitmix64(state);
  return out;
}

/// CPU seconds of this process and its reaped children (getrusage), and
/// peak resident sets. The own peak is VmHWM: ru_maxrss would carry over
/// the resident set of whatever process exec'd this one. A child's
/// ru_maxrss likewise includes this process's resident set at fork, so the
/// children's figure is an upper bound.
struct Usage {
  double self_cpu_s = 0.0;
  double child_cpu_s = 0.0;
  long self_rss_kb = 0;
  long child_rss_kb = 0;
  [[nodiscard]] double cpu_s() const { return self_cpu_s + child_cpu_s; }
};

inline long peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

inline Usage usage_now() {
  const auto cpu = [](const rusage& r) {
    return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec);
  };
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return Usage{cpu(self), cpu(kids), peak_rss_kb(), kids.ru_maxrss};
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The fastest of a run's rounds: how end-to-end timings and timing ratios
/// are reported. On a shared host, neighbours' load only ever adds time,
/// and it comes in episodes longer than a round; a run's median then
/// depends on how much of the run such an episode covered, while its
/// fastest round does not. The human table gives the median beside it.
inline double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

inline double hit_ratio(std::size_t hits, std::size_t misses) {
  return hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) / static_cast<double>(hits + misses);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// Fold the bit pattern of `v` into an FNV-1a digest.
inline void fnv_mix(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
}

inline void fnv_mix_u64(std::uint64_t& h, std::uint64_t v) {
  double d = 0.0;
  std::memcpy(&d, &v, sizeof(d));
  fnv_mix(h, d);
}

/// Deltas of the program's existing obs counters across a measured span
/// of work. The registry is process-global, so reads bracket the work.
struct Counters {
  static constexpr const char* kNames[] = {
      "sim.ticks",          "sim.span_ticks",         "sim.span_completion_ticks",
      "sim.fast_forward_ticks", "sim.spans",          "sched.easy.backfilled",
      "sched.carbon.held_jobs", "pool.chunks",        "pool.worker_wakeups"};
  static constexpr std::size_t kCount = sizeof(kNames) / sizeof(kNames[0]);
  std::uint64_t v[kCount] = {};

  static Counters now() {
    Counters c;
    for (std::size_t i = 0; i < kCount; ++i) {
      c.v[i] = greenhpc::obs::Registry::global().counter(kNames[i]).value();
    }
    return c;
  }
  [[nodiscard]] Counters operator-(const Counters& o) const {
    Counters d;
    for (std::size_t i = 0; i < kCount; ++i) d.v[i] = v[i] - o.v[i];
    return d;
  }
  [[nodiscard]] std::uint64_t get(const char* name) const {
    for (std::size_t i = 0; i < kCount; ++i) {
      if (std::strcmp(kNames[i], name) == 0) return v[i];
    }
    return 0;
  }
  /// Simulated ticks over every engine path: per-tick loop, span kernel
  /// and idle fast-forward.
  [[nodiscard]] std::uint64_t all_ticks() const {
    return get("sim.ticks") + get("sim.span_ticks") + get("sim.fast_forward_ticks");
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count, spread or derivation; human output only
};

/// Everything one run reports: correctness, case accounting and metrics.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> checks;  ///< one human line per correctness check
  std::vector<Metric> metrics;

  void put(std::string name, double value, std::string unit, std::string note = {}) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), std::move(note)});
  }
  /// Record a correctness check; a failed one marks the run incorrect and
  /// counts `cases` as failed.
  void check(bool ok, const std::string& what, std::uint64_t cases) {
    checks.push_back(std::string(ok ? "PASS  " : "FAIL  ") + what);
    if (!ok) {
      correct = false;
      failed += cases;
    }
  }
};

/// "fastest of n rounds, median m, IQR a..b" annotation for a timing.
std::string timing_note(const std::vector<double>& v);

/// Put the end-to-end metrics from per-round set-up, run and CPU seconds of
/// rounds that each ran `cases` cases and `ticks` simulated ticks.
void put_end_to_end(Report& rep, const std::vector<double>& setup,
                    const std::vector<double>& run, const std::vector<double>& cpu,
                    double cases, std::uint64_t ticks, double rss_mb,
                    const std::string& rss_note);

/// Print a run's digest and check it against the pin for (workload, size,
/// seed); a seed without a pin is reported, not failed, and the relational
/// checks still run.
void check_digest(Report& rep, const Options& o, std::uint64_t digest, std::uint64_t cases);

template <typename R, typename F>
std::vector<double> collect(const std::vector<R>& rounds, F f) {
  std::vector<double> v;
  for (const R& r : rounds) v.push_back(f(r));
  return v;
}

/// Every round must repeat the warm-up digest and quarantine no case; a
/// mismatched round counts all its cases as failed.
template <typename R>
void check_rounds(Report& rep, const std::vector<R>& rounds, std::uint64_t want,
                  const char* what) {
  std::size_t bad = 0;
  std::uint64_t bad_cases = 0;
  std::uint64_t quarantined = 0;
  for (const R& r : rounds) {
    if (r.digest != want) {
      ++bad;
      bad_cases += r.cases;
    } else {
      quarantined += r.quarantined;
    }
  }
  rep.check(bad == 0,
            std::string(what) + ": " + std::to_string(rounds.size() - bad) + "/" +
                std::to_string(rounds.size()) + " rounds repeat the warm-up digest",
            bad_cases);
  rep.check(quarantined == 0,
            std::string(what) + ": " + std::to_string(quarantined) + " cases quarantined",
            quarantined);
}

/// Pins the calling thread, and the threads and processes it creates from
/// then on, to `width` of the CPUs it may use, starting one CPU further on
/// each call. On a shared host the vCPUs run at different speeds at the
/// same moment (one dense round took 0.24 s on two vCPUs and 0.30–0.35 s
/// on another), so rotating makes a run's fastest round independent of
/// where the scheduler happened to place its threads: over eight 10 s
/// runs the fastest dense round ranged 0.249–0.285 s rotated against
/// 0.239–0.374 s unpinned. Restores the original mask on destruction.
class CpuRotation {
 public:
  explicit CpuRotation(std::size_t width) : width_(width) {
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

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t k = 0; k < std::min(width_, cpus_.size()); ++k) {
      CPU_SET(cpus_[(turn_ + k) % cpus_.size()], &set);
    }
    ++turn_;
    (void)sched_setaffinity(0, sizeof(set), &set);
  }
  /// CPUs the process may use.
  [[nodiscard]] std::size_t cpus() const { return cpus_.size(); }

 private:
  std::size_t width_;
  cpu_set_t saved_{};
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// Keep timing rounds until `seconds` have elapsed and at least
/// `min_rounds` rounds ran.
inline bool keep_going(Clock::time_point start, double seconds, std::size_t rounds,
                       std::size_t min_rounds = 3) {
  return rounds < min_rounds || since(start) < seconds;
}

class Attribution;
/// Put the traced table: each layer's self time, the program's own span
/// self times and counts, the unattributed remainder, and the sum check
/// (layers + unattributed = traced thread wall time within kSumTolerance),
/// each per traced round.
void put_attribution(Report& rep, const Attribution& attr, double rounds);
class SpanLog;
/// Write the benchmark's own spans to o.spans_out (traced runs only).
void write_spans(Report& rep, const SpanLog& log, const Options& o);

// Workload entry points (one translation unit each).
Report run_sim_dense(const Options& o);
Report run_sweep_backlog(const Options& o);
Report run_sweep_fleet(const Options& o);

}  // namespace perfbench
