#include "obs/json.hpp"

#include <ostream>

namespace greenhpc::obs {

void json_escape(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
         << "0123456789abcdef"[c & 0xf];
    } else {
      os << c;
    }
  }
}

}  // namespace greenhpc::obs
