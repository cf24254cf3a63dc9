#include "security/spec_io.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace rsnsec::security {

namespace {

/// Upper bound for numeric module indices in spec files. A spec's
/// largest index sizes the policy table, so an absurd index (typo or
/// hostile input) must be a parse error, not a multi-gigabyte
/// allocation.
constexpr std::uint64_t kMaxModuleIndex = 1u << 20;

}  // namespace

void write_spec(std::ostream& os, const SecuritySpec& spec,
                const std::vector<std::string>& module_names) {
  os << "categories " << spec.num_categories() << "\n";
  const std::uint32_t all =
      spec.num_categories() >= 32 ? 0xffffffffu
                                  : ((1u << spec.num_categories()) - 1u);
  for (std::size_t m = 0; m < spec.num_modules(); ++m) {
    const ModulePolicy& p = spec.policy(static_cast<netlist::ModuleId>(m));
    if ((p.accepted & all) == all && p.trust == spec.num_categories() - 1)
      continue;  // default policy: omit
    os << "module ";
    if (m < module_names.size() && !module_names[m].empty()) {
      os << module_names[m];
    } else {
      os << m;
    }
    os << " trust " << static_cast<unsigned>(p.trust) << " accepts ";
    bool first = true;
    for (std::size_t c = 0; c < spec.num_categories(); ++c) {
      if ((p.accepted >> c) & 1u) {
        os << (first ? "" : ",") << c;
        first = false;
      }
    }
    os << "\n";
  }
}

SecuritySpec read_spec(std::string_view text,
                       const std::vector<std::string>& module_names) {
  obs::Span span(obs::TraceSession::active(), "parse.spec");
  std::map<std::string, std::size_t, std::less<>> by_name;
  for (std::size_t i = 0; i < module_names.size(); ++i)
    by_name[module_names[i]] = i;

  struct Entry {
    std::size_t module;
    TrustCategory trust;
    std::uint32_t accepted;
  };
  std::vector<Entry> entries;
  std::size_t categories = 0;
  std::size_t max_module = module_names.size();

  int line_no = 0;
  auto fail = [&](const std::string& msg) -> SpecParseError {
    return SpecParseError(line_no, msg);
  };
  // Guarded numeric parse: a hostile or truncated file must surface as a
  // line-numbered diagnostic, never as an uncaught std::stoul exception.
  auto parse_num = [&](std::string_view tok,
                       const char* what) -> std::uint64_t {
    std::optional<std::uint64_t> v = parse_u64(tok);
    if (!v)
      throw fail(std::string("invalid ") + what + " '" + std::string(tok) +
                 "' (expected a non-negative integer)");
    return *v;
  };
  std::vector<std::string_view> tok;
  std::string_view line;
  for (std::size_t pos = 0; next_line(text, pos, line);) {
    ++line_no;
    std::string_view sv = trim(line);
    if (sv.empty() || sv.front() == '#') continue;
    // split_ws: tabs and runs of spaces separate tokens just like a
    // single space, so indented or column-aligned specs parse the same.
    split_ws(sv, tok);
    if (tok[0] == "categories") {
      if (tok.size() != 2) throw fail("expected: categories <n>");
      std::uint64_t n = parse_num(tok[1], "category count");
      if (n == 0 || n > max_categories)
        throw fail("category count out of range");
      categories = static_cast<std::size_t>(n);
    } else if (tok[0] == "module") {
      if (tok.size() != 6 || tok[2] != "trust" || tok[4] != "accepts")
        throw fail(
            "expected: module <name|index> trust <cat> accepts <list>");
      if (categories == 0)
        throw fail("'categories' must come before 'module' lines");
      Entry e{};
      auto it = by_name.find(tok[1]);
      if (it != by_name.end()) {
        e.module = it->second;
      } else if (tok[1].find_first_not_of("0123456789") ==
                 std::string_view::npos) {
        std::optional<std::uint64_t> m = parse_u64(tok[1]);
        if (!m || *m > kMaxModuleIndex)
          throw fail("module index " + std::string(tok[1]) +
                     " out of range (max " +
                     std::to_string(kMaxModuleIndex) + ")");
        e.module = static_cast<std::size_t>(*m);
      } else {
        throw fail("unknown module '" + std::string(tok[1]) + "'");
      }
      std::uint64_t trust = parse_num(tok[3], "trust category");
      if (trust >= categories) throw fail("trust category out of range");
      e.trust = static_cast<TrustCategory>(trust);
      for (const std::string& c : split(tok[5], ',')) {
        std::uint64_t cat = parse_num(c, "accepted category");
        if (cat >= categories) throw fail("accepted category out of range");
        e.accepted |= 1u << cat;
      }
      if (((e.accepted >> e.trust) & 1u) == 0)
        throw fail("module must accept its own trust category");
      max_module = std::max(max_module, e.module + 1);
      entries.push_back(e);
    } else {
      throw fail("unknown keyword '" + std::string(tok[0]) + "'");
    }
  }
  if (categories == 0) throw fail("missing 'categories' line");

  SecuritySpec spec(max_module, categories);
  // Defaults: top trust, accept-all (fully permissive).
  const std::uint32_t all =
      categories >= 32 ? 0xffffffffu : ((1u << categories) - 1u);
  for (std::size_t m = 0; m < max_module; ++m)
    spec.set_policy(static_cast<netlist::ModuleId>(m),
                    static_cast<TrustCategory>(categories - 1), all);
  for (const Entry& e : entries)
    spec.set_policy(static_cast<netlist::ModuleId>(e.module), e.trust,
                    e.accepted);
  return spec;
}

SecuritySpec read_spec(std::istream& is,
                       const std::vector<std::string>& module_names) {
  return read_spec(read_all(is), module_names);
}

}  // namespace rsnsec::security
