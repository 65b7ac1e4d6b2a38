#include "obs/run_report.hpp"

#include <ostream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace greenhpc::obs {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void RunReport::write_json(std::ostream& os) const {
  os << "{\n  \"tool\": \"";
  json_escape(os, tool);
  os << "\",\n  \"config\": \"";
  json_escape(os, config);
  os << "\",\n  \"config_digest\": \"" << std::hex << config_digest << std::dec
     << "\",\n  \"wall_s\": " << wall_s;
  os << ",\n  \"numbers\": {";
  for (std::size_t i = 0; i < numbers.size(); ++i) {
    if (i > 0) os << ",";
    os << "\n    \"";
    json_escape(os, numbers[i].first);
    os << "\": " << numbers[i].second;
  }
  os << (numbers.empty() ? "}" : "\n  }");
  os << ",\n  \"labels\": {";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) os << ",";
    os << "\n    \"";
    json_escape(os, labels[i].first);
    os << "\": \"";
    json_escape(os, labels[i].second);
    os << "\"";
  }
  os << (labels.empty() ? "}" : "\n  }");
  if (embed_metrics) {
    os << ",\n  \"metrics\": ";
    Registry::global().write_json(os);
    // write_json ends with '\n'; swallow it into our layout by not adding
    // another before the closing brace.
    os << "}\n";
  } else {
    os << "\n}\n";
  }
}

}  // namespace greenhpc::obs
