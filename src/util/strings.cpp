#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <istream>

namespace rsnsec {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t next = s.find(sep, pos);
    if (next == std::string_view::npos) next = s.size();
    std::string_view piece = trim(s.substr(pos, next - pos));
    if (!piece.empty()) out.emplace_back(piece);
    pos = next + 1;
  }
  return out;
}

void split_ws(std::string_view s, std::vector<std::string_view>& out) {
  // The "C" locale's isspace, inlined: this runs on every byte of the
  // .rsn and .spec readers.
  auto space = [](char c) { return c == ' ' || (c >= '\t' && c <= '\r'); };
  out.clear();
  std::size_t pos = 0;
  while (pos < s.size()) {
    while (pos < s.size() && space(s[pos])) ++pos;
    std::size_t start = pos;
    while (pos < s.size() && !space(s[pos])) ++pos;
    if (pos > start) out.push_back(s.substr(start, pos - start));
  }
}

std::string read_all(std::istream& is) {
  std::string text;
  char buf[1 << 16];
  while (is.read(buf, sizeof buf), is.gcount() > 0)
    text.append(buf, static_cast<std::size_t>(is.gcount()));
  return text;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v, 10);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<double> parse_double(std::string_view s) {
  if (s.empty()) return std::nullopt;
  double v = 0.0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string with_thousands(long long v) {
  std::string digits = std::to_string(v < 0 ? -v : v);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count && count % 3 == 0) out.push_back(' ');
    out.push_back(*it);
    ++count;
  }
  if (v < 0) out.push_back('-');
  return {out.rbegin(), out.rend()};
}

}  // namespace rsnsec
