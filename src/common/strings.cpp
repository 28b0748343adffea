#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace lbe::str {

namespace {
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' ||
         c == '\f';
}
}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view next_field(std::string_view& rest) {
  std::size_t i = 0;
  while (i < rest.size() && is_space(rest[i])) ++i;
  const std::size_t start = i;
  while (i < rest.size() && !is_space(rest[i])) ++i;
  const std::string_view field = rest.substr(start, i - start);
  rest.remove_prefix(i);
  return field;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

bool parse_double(std::string_view s, double& out) {
  s = trim(s);
  if (s.empty()) return false;
  const char* begin = s.data();
  const char* end = begin + s.size();
  const auto result = std::from_chars(begin, end, out);
  return result.ec == std::errc() && result.ptr == end;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  s = trim(s);
  if (s.empty()) return false;
  const char* begin = s.data();
  const char* end = begin + s.size();
  const auto result = std::from_chars(begin, end, out);
  return result.ec == std::errc() && result.ptr == end;
}

std::string human_bytes(std::uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f %s", value, kUnits[unit]);
  return buf;
}

std::string human_seconds(double seconds) {
  char buf[32];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  }
  return buf;
}

}  // namespace lbe::str
