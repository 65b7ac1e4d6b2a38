#pragma once
// Stable gtest names for plain-struct test parameters.
//
// Without a PrintTo, gtest names each parameterized test after a dump of
// the parameter's bytes, padding included; padding holds whatever the
// stack held, so the names changed from build to build. print_zero_padded
// prints the same dump from a copy whose padding is zeroed: the names keep
// their form and stay fixed.

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <ostream>

namespace greenhpc::testing {

/// gtest's "N-byte object <..>" dump of `value`, with every byte outside
/// the listed members printed as zero. List every member of T.
template <class T, class... M>
void print_zero_padded(const T& value, std::ostream* os, M T::*... members) {
  unsigned char bytes[sizeof(T)] = {};
  const auto* base = reinterpret_cast<const unsigned char*>(&value);
  (std::memcpy(bytes + (reinterpret_cast<const unsigned char*>(&(value.*members)) - base),
               &(value.*members), sizeof(M)),
   ...);
  *os << sizeof(T) << "-byte object <";
  for (std::size_t i = 0; i < sizeof(bytes); ++i) {
    if (i > 0) *os << (i % 2 == 0 ? ' ' : '-');
    char hex[3];
    std::snprintf(hex, sizeof(hex), "%02X", static_cast<unsigned>(bytes[i]));
    *os << hex;
  }
  *os << '>';
}

}  // namespace greenhpc::testing
