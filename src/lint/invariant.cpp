#include "lint/invariant.hpp"

#include <set>
#include <sstream>
#include <stdexcept>

namespace rsnsec::lint {

InvariantChecker::InvariantChecker(const rsn::Rsn& before) {
  register_names_.reserve(before.registers().size());
  for (rsn::ElemId r : before.registers())
    register_names_.push_back(before.elem(r).name);
}

std::vector<Diagnostic> InvariantChecker::check(const rsn::Rsn& after) const {
  std::vector<Diagnostic> diags;
  auto add = [&](const char* code, std::string object, std::string message) {
    Diagnostic d;
    d.code = code;
    d.severity = Severity::Error;
    d.location = after.name() + ": " + std::move(object);
    d.message = std::move(message);
    diags.push_back(std::move(d));
  };

  if (!after.is_acyclic()) {
    add("INV001", "network", "transformation introduced a scan-path cycle");
    return diags;  // derived checks are meaningless on a cyclic graph
  }

  std::set<std::string> current;
  for (rsn::ElemId r : after.registers()) current.insert(after.elem(r).name);
  for (const std::string& name : register_names_) {
    if (!current.count(name))
      add("INV002", "register '" + name + "'",
          "scan register present before the transformation is gone");
  }

  const rsn::ScanAccess access = after.scan_access();
  for (rsn::ElemId r : after.registers()) {
    if (!access.accessible(r))
      add("INV003", "register '" + after.elem(r).name + "'",
          "transformation left the register without any complete scan "
          "path (inaccessible)");
  }

  // Catch-all: anything validate() rejects that the specific checks above
  // did not already explain (dangling inputs, invalid ids).
  std::string err;
  if (diags.empty() && !after.validate(&err))
    add("INV004", "network", "structural validation failed: " + err);
  return diags;
}

void InvariantChecker::require(const rsn::Rsn& after,
                               const std::string& context) const {
  std::vector<Diagnostic> diags = check(after);
  if (diags.empty()) return;
  std::ostringstream os;
  os << "post-transformation invariant violated after " << context << ":\n";
  render_text(os, diags);
  throw std::logic_error(os.str());
}

}  // namespace rsnsec::lint
