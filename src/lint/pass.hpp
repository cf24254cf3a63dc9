#pragma once

#include <string>
#include <vector>

#include "lint/diagnostic.hpp"
#include "netlist/netlist.hpp"
#include "rsn/rsn.hpp"
#include "security/spec.hpp"

namespace rsnsec::lint {

/// Everything a lint run may look at. All pointers are optional and
/// non-owning; a pass declares via applicable() which parts it needs.
/// The `*_source` labels prefix diagnostic locations (file paths when
/// linting files, model names when linting in-memory objects).
struct LintInput {
  const netlist::Netlist* circuit = nullptr;
  /// Declared circuit output nodes (from the Verilog port list); sinks
  /// that keep upstream logic alive for the dead-logic check.
  std::vector<netlist::NodeId> circuit_outputs;
  /// Additional live circuit nodes: capture sources referenced by the
  /// scan network observe a net even when no gate consumes it.
  std::vector<netlist::NodeId> circuit_roots;
  std::string circuit_source;

  const rsn::Rsn* network = nullptr;
  std::string network_source;

  const security::SecuritySpec* spec = nullptr;
  /// Module names the spec's module indices refer to (netlist/RSN
  /// modules); enables the cross-reference pass when present.
  const std::vector<std::string>* module_names = nullptr;
  std::string spec_source;
};

/// Collects diagnostics for one pass run; prefixes locations with the
/// relevant source label.
class Sink {
 public:
  explicit Sink(std::vector<Diagnostic>& out) : out_(out) {}

  void report(Diagnostic d) { out_.push_back(std::move(d)); }

  /// Convenience: report(code, severity, source, object, message, hint).
  void add(std::string code, Severity sev, const std::string& source,
           const std::string& object, std::string message,
           std::string fix_hint = {}) {
    Diagnostic d;
    d.code = std::move(code);
    d.severity = sev;
    d.location = source.empty() ? object : source + ": " + object;
    d.message = std::move(message);
    d.fix_hint = std::move(fix_hint);
    out_.push_back(std::move(d));
  }

 private:
  std::vector<Diagnostic>& out_;
};

/// One static check over a LintInput. Passes are stateless and
/// independent: each must terminate and produce meaningful diagnostics on
/// arbitrarily malformed input (in particular on cyclic graphs), because
/// the passes that would normally report the malformation run in the same
/// batch, not before.
class Pass {
 public:
  virtual ~Pass() = default;

  /// Stable pass identifier ("rsn-acyclicity").
  virtual const char* name() const = 0;

  /// True if the input carries the parts this pass inspects.
  virtual bool applicable(const LintInput& in) const = 0;

  /// Runs the check; appends findings to `sink`.
  virtual void run(const LintInput& in, Sink& sink) const = 0;
};

}  // namespace rsnsec::lint
