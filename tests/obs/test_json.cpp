#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace greenhpc::obs {
namespace {

std::string escaped(std::string_view s) {
  std::ostringstream os;
  json_escape(os, s);
  return os.str();
}

TEST(JsonEscape, QuoteAndBackslash) {
  EXPECT_EQ(escaped(R"(say "hi")"), R"(say \"hi\")");
  EXPECT_EQ(escaped(R"(C:\dir\)"), R"(C:\\dir\\)");
}

TEST(JsonEscape, ControlCharactersBecomeUnicodeEscapes) {
  EXPECT_EQ(escaped("a\nb\tc\rd"), R"(a\u000ab\u0009c\u000dd)");
  EXPECT_EQ(escaped(std::string_view("\0\x1f", 2)), R"(\u0000\u001f)");
  // 0x20 (space) and 0x7f (DEL) are printable to JSON and pass through.
  EXPECT_EQ(escaped(" \x7f"), " \x7f");
}

TEST(JsonEscape, PlainAndUtf8PassThrough) {
  EXPECT_EQ(escaped(""), "");
  EXPECT_EQ(escaped("sched.easy/ok"), "sched.easy/ok");
  EXPECT_EQ(escaped("gCO\xe2\x82\x82"), "gCO\xe2\x82\x82");  // "gCO₂"
}

}  // namespace
}  // namespace greenhpc::obs
