// Security-specification passes (SPEC001-SPEC004). SecuritySpec::validate
// rejects some of these with a single error string; the lint passes report
// every offending module individually with stable codes.

#include <string>

#include "lint/passes.hpp"

namespace rsnsec::lint {

namespace {

using netlist::ModuleId;
using security::SecuritySpec;

std::string module_label(const LintInput& in, std::size_t m) {
  if (in.module_names && m < in.module_names->size())
    return "module '" + (*in.module_names)[m] + "'";
  return "module " + std::to_string(m);
}

/// SPEC001-SPEC003: per-module policy consistency. A policy with an
/// out-of-range trust category addresses a category the spec does not
/// define; an empty accepted set (or one rejecting the module's own
/// category) means the module's data may not even stay where it is
/// produced — no RSN transformation can satisfy that.
class SpecConsistencyPass final : public Pass {
 public:
  const char* name() const override { return "spec-consistency"; }
  bool applicable(const LintInput& in) const override {
    return in.spec != nullptr;
  }
  void run(const LintInput& in, Sink& sink) const override {
    const SecuritySpec& spec = *in.spec;
    std::size_t cats = spec.num_categories();
    std::uint32_t cat_mask = cats >= 32
                                 ? 0xffffffffu
                                 : ((1u << cats) - 1u);
    for (std::size_t m = 0; m < spec.num_modules(); ++m) {
      const security::ModulePolicy& p =
          spec.policy(static_cast<ModuleId>(m));
      if (p.trust >= cats) {
        sink.add("SPEC001", Severity::Error, in.spec_source,
                 module_label(in, m),
                 "trust category " + std::to_string(p.trust) +
                     " out of range (spec defines " + std::to_string(cats) +
                     " categories)",
                 "raise 'categories' or lower the module's trust");
        continue;  // the accepted-set checks below index by trust
      }
      if ((p.accepted & cat_mask) == 0) {
        sink.add("SPEC002", Severity::Error, in.spec_source,
                 module_label(in, m),
                 "accepted-category set is empty: the module's data may "
                 "flow nowhere, not even within the module",
                 "accept at least the module's own trust category");
      } else if (!(p.accepted & (1u << p.trust))) {
        sink.add("SPEC003", Severity::Error, in.spec_source,
                 module_label(in, m),
                 "module rejects its own trust category " +
                     std::to_string(p.trust),
                 "a module may always see its own data; add category " +
                     std::to_string(p.trust) + " to 'accepts'");
      }
    }
  }
};

/// SPEC004: a spec covering more modules than the network declares is
/// usually a stale or mismatched file (policies beyond the known modules
/// can never apply). Needs module names, so it only runs when a network
/// or circuit accompanies the spec.
class SpecCrossReferencePass final : public Pass {
 public:
  const char* name() const override { return "spec-cross-reference"; }
  bool applicable(const LintInput& in) const override {
    return in.spec != nullptr && in.module_names != nullptr;
  }
  void run(const LintInput& in, Sink& sink) const override {
    std::size_t known = in.module_names->size();
    for (std::size_t m = known; m < in.spec->num_modules(); ++m) {
      sink.add("SPEC004", Severity::Warning, in.spec_source,
               "module " + std::to_string(m),
               "policy refers to a module the network does not declare "
               "(network has " + std::to_string(known) + " modules)",
               "remove the stale policy or pair the spec with the right "
               "network");
    }
  }
};

}  // namespace

std::unique_ptr<Pass> make_spec_consistency_pass() {
  return std::make_unique<SpecConsistencyPass>();
}
std::unique_ptr<Pass> make_spec_cross_reference_pass() {
  return std::make_unique<SpecCrossReferencePass>();
}

}  // namespace rsnsec::lint
