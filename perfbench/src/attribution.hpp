#pragma once
// Per-layer attribution for the traced runs.
//
// The benchmark records its own spans around each public call it makes
// (SpanLog/Span). Each span goes into obs::Tracer's per-thread ring, next
// to the spans the program already emits (sim.*, sweep.*, pool.*), so both
// nest on one clock and one thread timeline; the benchmark also keeps its
// spans in memory with their parent and case id and writes them out at the
// end. Attribution::absorb() drains the tracer over a window and computes
// every span's self time (its duration minus the part its direct children
// cover), sums self times per layer, and counts the time no span covers as
// unattributed. Layers are the repository's modules.

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer { Carbon, Hpcsim, Sched, Core, Util, Fabric, Other };
inline constexpr std::size_t kLayers = 7;
const char* layer_name(Layer layer);
/// Layer of a span name, by prefix: the benchmark's own spans are named
/// "<layer>.<call>", the program's by their module (sim.schedule is the
/// policies' on_tick, so it belongs to sched).
Layer layer_of(const char* name);

inline constexpr std::uint64_t kNoCase = ~0ull;

/// In-memory log of the benchmark's own spans. Off by default: a disabled
/// log makes Span a no-op, so untraced rounds pay nothing.
class SpanLog {
 public:
  struct Record {
    const char* name = nullptr;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::uint64_t case_id = kNoCase;
  };

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  std::uint32_t next_id();
  void add(const Record& r);
  [[nodiscard]] std::size_t size() const;
  /// One JSON object per line: name, start_ns, end_ns, id, parent, case.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::uint32_t last_id_ = 0;
  std::vector<Record> records_;
};

/// RAII span around one public call. The parent defaults to the span open
/// on this thread; cross-thread children (cases run on pool threads) pass
/// their block's id explicitly.
class Span {
 public:
  static constexpr std::uint32_t kCurrent = ~0u;
  Span(SpanLog& log, const char* name, std::uint64_t case_id = kNoCase,
       std::uint32_t parent = kCurrent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] std::uint32_t id() const { return rec_.id; }

 private:
  SpanLog* log_ = nullptr;
  SpanLog::Record rec_;
  std::uint32_t saved_current_ = 0;
};

class Attribution {
 public:
  struct NameStat {
    std::uint64_t count = 0;
    double self_s = 0.0;
    double total_s = 0.0;
  };

  /// `team`: threads expected to run spans (the caller plus pool workers).
  explicit Attribution(int team) : team_(team) {}

  /// Drain obs::Tracer, attribute every thread's spans clipped to
  /// [begin_ns, end_ns], then reset the tracer. Must run while no thread is
  /// recording (between blocks, after joins).
  void absorb(std::uint64_t begin_ns, std::uint64_t end_ns);

  [[nodiscard]] double layer_s(Layer l) const { return layer_s_[static_cast<std::size_t>(l)]; }
  [[nodiscard]] NameStat name(const std::string& n) const;
  [[nodiscard]] double unattributed_s() const { return unattributed_s_; }
  /// Team threads × windows: what layers + unattributed must add up to.
  [[nodiscard]] double thread_wall_s() const { return team_ * window_s_; }
  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] int max_threads_seen() const { return max_threads_seen_; }
  [[nodiscard]] int team() const { return team_; }
  /// |Σ layers + unattributed − thread wall| ÷ thread wall.
  [[nodiscard]] double sum_error() const;

 private:
  int team_;
  double window_s_ = 0.0;
  double unattributed_s_ = 0.0;
  std::array<double, kLayers> layer_s_{};
  std::map<std::string, NameStat> names_;
  std::uint64_t events_ = 0;
  std::uint64_t dropped_ = 0;
  int max_threads_seen_ = 0;
};

/// Tolerance of the sum check, as a share of the traced thread wall time.
inline constexpr double kSumTolerance = 0.01;

}  // namespace perfbench
