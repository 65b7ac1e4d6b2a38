#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <ostream>

#include "obs/json.hpp"

namespace greenhpc::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(std::max<std::size_t>(1, capacity)) {}

void FlightRecorder::record(double t_s, std::string kind, std::string detail) {
  FlightEvent& slot = ring_[head_ % ring_.size()];
  slot.t_s = t_s;
  slot.kind = std::move(kind);
  slot.detail = std::move(detail);
  ++head_;
}

std::size_t FlightRecorder::size() const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(head_, ring_.size()));
}

std::uint64_t FlightRecorder::dropped() const { return head_ - size(); }

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<FlightEvent> out;
  const std::uint64_t n = size();
  out.reserve(n);
  for (std::uint64_t i = head_ - n; i < head_; ++i) {
    out.push_back(ring_[i % ring_.size()]);
  }
  return out;
}

void FlightRecorder::write_jsonl(std::ostream& os) const {
  const std::uint64_t n = size();
  for (std::uint64_t i = head_ - n; i < head_; ++i) {
    const FlightEvent& e = ring_[i % ring_.size()];
    os << "{\"seq\":" << i << ",\"t_s\":" << e.t_s << ",\"kind\":\"";
    json_escape(os, e.kind);
    os << "\",\"detail\":\"";
    json_escape(os, e.detail);
    os << "\"}\n";
  }
}

}  // namespace greenhpc::obs
