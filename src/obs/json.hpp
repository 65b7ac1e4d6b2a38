#pragma once
// JSON string escaping shared by every obs artifact writer (Chrome trace,
// fleet trace, flight-recorder JSONL, metrics JSON, RunReport).

#include <iosfwd>
#include <string_view>

namespace greenhpc::obs {

/// Write `s` as the body of a JSON string literal (no surrounding
/// quotes): `"` and `\` are backslash-escaped, bytes below 0x20 become
/// `\u00XX`, everything else (UTF-8 included) passes through unchanged.
void json_escape(std::ostream& os, std::string_view s);

}  // namespace greenhpc::obs
