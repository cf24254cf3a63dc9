#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "security/spec.hpp"

namespace rsnsec::security {

/// Malformed spec-file input. Carries the 1-based line number; what()
/// always reads "spec parse error at line N: ...". A distinct type so
/// the CLI can turn bad *input* into a usage-style exit code while real
/// I/O or internal failures keep the generic error path.
class SpecParseError : public std::runtime_error {
 public:
  SpecParseError(int line, const std::string& msg)
      : std::runtime_error("spec parse error at line " +
                           std::to_string(line) + ": " + msg),
        line_(line) {}

  int line() const { return line_; }

 private:
  int line_;
};

/// Serializes a security specification to a plain-text format:
///
///   categories 4
///   # module <name-or-index> trust <cat> accepts <cat>[,<cat>...]
///   module crypto trust 3 accepts 2,3
///   module 7 trust 0 accepts 0,1,2,3
///
/// Modules are written by name where `module_names` provides one;
/// unlisted modules are fully permissive (accept every category).
void write_spec(std::ostream& os, const SecuritySpec& spec,
                const std::vector<std::string>& module_names = {});

/// Parses the format produced by write_spec. Module names are resolved
/// against `module_names`; numeric indices are always accepted. Tokens
/// may be separated by any run of spaces or tabs. The returned spec
/// covers max(module_names.size(), largest index + 1) modules. Throws
/// SpecParseError with a line-numbered message on malformed input
/// (including non-numeric or overflowing numbers), unknown module names
/// or invalid categories.
SecuritySpec read_spec(std::string_view text,
                       const std::vector<std::string>& module_names = {});
/// The same on a whole stream (read once, then parsed as above).
SecuritySpec read_spec(std::istream& is,
                       const std::vector<std::string>& module_names = {});

}  // namespace rsnsec::security
