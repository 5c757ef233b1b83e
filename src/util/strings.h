// String helpers for the raw-log format and report printing.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace leaps::util {

/// Calls `visit(field)` on each `sep`-separated field of `s` in order,
/// empty fields included, without building a list of them.
template <typename Visit>
void for_each_field(std::string_view s, char sep, Visit&& visit) {
  while (true) {
    const std::size_t pos = s.find(sep);
    visit(s.substr(0, pos));
    if (pos == std::string_view::npos) return;
    s.remove_prefix(pos + 1);
  }
}

/// Removes the first whitespace-separated token from `s` and returns it;
/// empty once only whitespace is left.
std::string_view next_token(std::string_view& s);

/// Calls `visit(token)` on each whitespace-separated token of `s` in
/// order (runs of whitespace separate, so no token is empty), without
/// building a list of them.
template <typename Visit>
void for_each_token(std::string_view s, Visit&& visit) {
  for (std::string_view t = next_token(s); !t.empty(); t = next_token(s)) {
    visit(t);
  }
}

/// The first N whitespace-separated tokens of a line, in a fixed array:
/// a grammar whose records have fewer than N tokens reads size() == N as
/// "too many" without scanning the rest of the line.
template <std::size_t N>
class LeadingTokens {
 public:
  explicit LeadingTokens(std::string_view s) {
    while (size_ < N) {
      const std::string_view t = next_token(s);
      if (t.empty()) break;
      tokens_[size_++] = t;
    }
  }
  std::size_t size() const { return size_; }
  std::string_view operator[](std::size_t i) const { return tokens_[i]; }

 private:
  std::array<std::string_view, N> tokens_{};
  std::size_t size_ = 0;
};

std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

/// Parses a hexadecimal address of the form "0x1234abcd" or "1234abcd".
/// Returns false on malformed input.
bool parse_hex_u64(std::string_view s, std::uint64_t& out);

/// Formats an address as 0x%016x.
std::string hex_addr(std::uint64_t addr);

/// Fixed-point formatting with the given number of decimals (for tables).
std::string fixed(double v, int decimals);

}  // namespace leaps::util
