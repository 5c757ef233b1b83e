#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace leaps::util {

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t j = i;
    while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j]))) ++j;
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool parse_hex_u64(std::string_view s, std::uint64_t& out) {
  if (starts_with(s, "0x") || starts_with(s, "0X")) s.remove_prefix(2);
  if (s.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), out, 16);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

std::string hex_addr(std::uint64_t addr) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(addr));
  return buf;
}

std::string fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

}  // namespace leaps::util
