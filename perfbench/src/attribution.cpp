#include "attribution.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {
thread_local std::uint32_t t_current_span = 0;

bool starts_with(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}
}  // namespace

const char* layer_name(Layer layer) {
  static const char* const names[kLayers] = {"carbon", "hpcsim", "sched", "core",
                                             "util",   "fabric", "other"};
  return names[static_cast<std::size_t>(layer)];
}

Layer layer_of(const char* name) {
  if (std::strcmp(name, "sim.schedule") == 0 || starts_with(name, "sched.")) {
    return Layer::Sched;
  }
  if (starts_with(name, "sim.") || starts_with(name, "hpcsim.")) return Layer::Hpcsim;
  if (starts_with(name, "carbon.")) return Layer::Carbon;
  if (std::strcmp(name, "sweep.coordinator") == 0 || starts_with(name, "fabric.")) {
    return Layer::Fabric;
  }
  if (starts_with(name, "sweep.") || starts_with(name, "scenario.") ||
      starts_with(name, "core.")) {
    return Layer::Core;
  }
  if (starts_with(name, "pool.") || starts_with(name, "util.")) return Layer::Util;
  return Layer::Other;
}

std::uint32_t SpanLog::next_id() {
  const std::lock_guard<std::mutex> lock(mu_);
  return ++last_id_;
}

void SpanLog::add(const Record& r) {
  const std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(r);
}

std::size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Record& r : records_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,\"id\":%u,"
                 "\"parent\":%u,\"case\":%lld}\n",
                 r.name, static_cast<unsigned long long>(r.start_ns),
                 static_cast<unsigned long long>(r.end_ns), r.id, r.parent,
                 r.case_id == kNoCase ? -1LL : static_cast<long long>(r.case_id));
  }
  return std::fclose(f) == 0;
}

Span::Span(SpanLog& log, const char* name, std::uint64_t case_id, std::uint32_t parent) {
  if (!log.enabled()) return;
  log_ = &log;
  rec_.name = name;
  rec_.id = log.next_id();
  rec_.parent = parent == kCurrent ? t_current_span : parent;
  rec_.case_id = case_id;
  saved_current_ = t_current_span;
  t_current_span = rec_.id;
  rec_.start_ns = greenhpc::obs::Tracer::now_ns();
}

Span::~Span() {
  if (log_ == nullptr) return;
  rec_.end_ns = greenhpc::obs::Tracer::now_ns();
  t_current_span = saved_current_;
  greenhpc::obs::Tracer::record_complete(rec_.name, "perfbench", rec_.start_ns,
                                         rec_.end_ns);
  log_->add(rec_);
}

void Attribution::absorb(std::uint64_t begin_ns, std::uint64_t end_ns) {
  using greenhpc::obs::Tracer;
  const std::vector<greenhpc::obs::ThreadTrace> threads = Tracer::snapshot();
  dropped_ += Tracer::dropped();
  Tracer::reset();
  if (end_ns <= begin_ns) return;
  const double window_s = 1e-9 * static_cast<double>(end_ns - begin_ns);
  window_s_ += window_s;

  struct Iv {
    std::uint64_t b = 0;
    std::uint64_t e = 0;
    const char* name = nullptr;
    std::uint64_t child_ns = 0;
  };
  int seen = 0;
  for (const auto& t : threads) {
    std::vector<Iv> spans;
    for (const auto& ev : t.events) {
      if (ev.phase != 'X') continue;
      const std::uint64_t b = std::max(ev.ts_ns, begin_ns);
      const std::uint64_t e = std::min(ev.ts_ns + ev.dur_ns, end_ns);
      if (e <= b) continue;
      spans.push_back(Iv{b, e, ev.name, 0});
    }
    if (spans.empty()) continue;
    ++seen;
    events_ += spans.size();
    // Outer spans first at equal starts, so a child never precedes its parent.
    std::sort(spans.begin(), spans.end(), [](const Iv& a, const Iv& b) {
      return a.b != b.b ? a.b < b.b : a.e > b.e;
    });
    std::vector<std::size_t> stack;
    std::uint64_t covered_ns = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      while (!stack.empty() && spans[stack.back()].e <= spans[i].b) stack.pop_back();
      if (stack.empty()) {
        covered_ns += spans[i].e - spans[i].b;
      } else {
        // Scoped spans on one thread nest; clip defensively so a partial
        // overlap can never count time twice.
        Iv& parent = spans[stack.back()];
        spans[i].e = std::min(spans[i].e, parent.e);
        parent.child_ns += spans[i].e - spans[i].b;
      }
      stack.push_back(i);
    }
    for (const Iv& s : spans) {
      const double total = 1e-9 * static_cast<double>(s.e - s.b);
      const double self = 1e-9 * static_cast<double>(s.e - s.b - s.child_ns);
      layer_s_[static_cast<std::size_t>(layer_of(s.name))] += self;
      NameStat& ns = names_[s.name];
      ++ns.count;
      ns.self_s += self;
      ns.total_s += total;
    }
    unattributed_s_ += window_s - 1e-9 * static_cast<double>(covered_ns);
  }
  // Team threads that recorded nothing in the window were idle throughout.
  if (seen < team_) unattributed_s_ += (team_ - seen) * window_s;
  max_threads_seen_ = std::max(max_threads_seen_, seen);
}

Attribution::NameStat Attribution::name(const std::string& n) const {
  const auto it = names_.find(n);
  return it == names_.end() ? NameStat{} : it->second;
}

double Attribution::sum_error() const {
  const double wall = thread_wall_s();
  if (wall <= 0.0) return 0.0;
  double sum = unattributed_s_;
  for (const double l : layer_s_) sum += l;
  return std::fabs(sum - wall) / wall;
}


void put_attribution(Report& rep, const Attribution& attr, double rounds) {
  const Layer layers[] = {Layer::Carbon, Layer::Hpcsim, Layer::Sched,
                          Layer::Core,   Layer::Util,   Layer::Fabric};
  for (const Layer l : layers) {
    rep.put(std::string(layer_name(l)) + ".self_s", attr.layer_s(l) / rounds, "s",
            "traced self time per round, thread-seconds");
  }
  const auto self = [&](const char* span) { return attr.name(span).self_s / rounds; };
  rep.put("hpcsim.span_self_s", self("sim.span"), "s");
  rep.put("hpcsim.integrate_self_s", self("sim.integrate"), "s");
  rep.put("hpcsim.fast_forward_self_s", self("sim.fast_forward"), "s");
  rep.put("sched.schedule_self_s", self("sim.schedule"), "s");
  rep.put("sched.schedule_calls",
          static_cast<double>(attr.name("sim.schedule").count) / rounds, "count");
  const double wall = attr.thread_wall_s();
  rep.put("core.unattributed_s", attr.unattributed_s() / rounds, "s",
          "traced thread time no span covers");
  rep.put("core.unattributed_share", wall > 0.0 ? attr.unattributed_s() / wall : 0.0, "1");
  rep.put("attribution.wall_s", wall / rounds, "s", "traced thread wall time per round");
  rep.put("attribution.sum_error", attr.sum_error(), "1");
  const double other = attr.layer_s(Layer::Other) / rounds;
  if (other > 0.0) {
    rep.checks.push_back("info  spans outside every layer: " + std::to_string(other) +
                         " s per round");
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "sum check: layers + unattributed = traced wall within %.0f%% "
                "(error %.5f%%, %llu ring drops, %d/%d threads)",
                100.0 * kSumTolerance, 100.0 * attr.sum_error(),
                static_cast<unsigned long long>(attr.dropped()), attr.max_threads_seen(),
                attr.team());
  rep.check(attr.sum_error() <= kSumTolerance && attr.dropped() == 0 &&
                attr.max_threads_seen() <= attr.team(),
            buf, 0);
}


void write_spans(Report& rep, const SpanLog& log, const Options& o) {
  if (!o.trace || o.spans_out.empty()) return;
  rep.check(log.write_jsonl(o.spans_out),
            std::to_string(log.size()) + " benchmark spans written to " + o.spans_out, 0);
}

}  // namespace perfbench
