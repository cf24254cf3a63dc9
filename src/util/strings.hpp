#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rsnsec {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits `s` on `sep`, trimming each piece; empty pieces are dropped.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits `s` on runs of ASCII whitespace (spaces, tabs, ...) into `out`
/// (cleared first, so a reader reuses one vector for every line). Leading,
/// trailing and consecutive whitespace never yield empty tokens, so the
/// line-oriented readers (.rsn, .spec) see the same token list however
/// the input was indented. The tokens are views into `s`.
void split_ws(std::string_view s, std::vector<std::string_view>& out);
inline std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  split_ws(s, out);
  return out;
}

/// Reads the line of `text` starting at `pos` into `line` (without its
/// '\n') and moves `pos` past it; false once `text` is used up. Lines
/// split as std::getline splits them: a last line without '\n' is a
/// line, the empty rest after a final '\n' is not.
inline bool next_line(std::string_view text, std::size_t& pos,
                      std::string_view& line) {
  if (pos >= text.size()) return false;
  std::size_t end = text.find('\n', pos);
  if (end == std::string_view::npos) end = text.size();
  line = text.substr(pos, end - pos);
  pos = end + 1;
  return true;
}

/// All remaining bytes of `is`, read in bulk: how every reader's stream
/// entry point hands its input to the reader's string_view entry point.
std::string read_all(std::istream& is);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Formats `v` with thousands separators ("28 704" style, as in Table I).
std::string with_thousands(long long v);

/// Strict non-negative integer parse: the whole of `s` must be decimal
/// digits and the value must fit a uint64. Returns nullopt on empty
/// input, sign characters, trailing garbage or overflow — the guarded
/// replacement for raw std::stoul at every user-input call site.
std::optional<std::uint64_t> parse_u64(std::string_view s);

/// Strict double parse: the whole of `s` must be a valid decimal number.
std::optional<double> parse_double(std::string_view s);

/// Escapes `s` for use inside a JSON string literal: quote, backslash,
/// and every control character below 0x20 (named escapes for \n \t \r
/// \b \f, \u00XX otherwise). This is the one escaper shared by the
/// report writer, the lint JSON renderer and the trace sinks — inline so
/// the dependency-free obs library can use it without linking util.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          out += "\\u00";
          out.push_back(hex[(static_cast<unsigned char>(c) >> 4) & 0xf]);
          out.push_back(hex[static_cast<unsigned char>(c) & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace rsnsec
