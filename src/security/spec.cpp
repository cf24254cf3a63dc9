#include "security/spec.hpp"

#include <bit>
#include <stdexcept>

namespace rsnsec::security {

SecuritySpec::SecuritySpec(std::size_t num_modules,
                           std::size_t num_categories)
    : policies_(num_modules), num_categories_(num_categories) {
  if (num_categories == 0 || num_categories > max_categories)
    throw std::invalid_argument("num_categories must be in [1, 16]");
  // Unannotated modules default to the TOP trust category with
  // fully-permissive data: they are trusted infrastructure, neither a
  // source of sensitive data nor a suspect observer. (Matching the
  // defaults of the spec file format, security/spec_io.)
  for (ModulePolicy& p : policies_) {
    p.trust = static_cast<TrustCategory>(num_categories - 1);
  }
  permissive_.trust = static_cast<TrustCategory>(num_categories - 1);
}

void SecuritySpec::set_policy(netlist::ModuleId m, TrustCategory trust,
                              std::uint32_t accepted_mask) {
  if (m < 0 || static_cast<std::size_t>(m) >= policies_.size())
    throw std::out_of_range("module id out of range");
  policies_[static_cast<std::size_t>(m)] = {trust, accepted_mask};
}

const ModulePolicy& SecuritySpec::policy(netlist::ModuleId m) const {
  if (m < 0 || static_cast<std::size_t>(m) >= policies_.size())
    return permissive_;
  return policies_[static_cast<std::size_t>(m)];
}

bool SecuritySpec::validate(std::string* error) const {
  for (std::size_t m = 0; m < policies_.size(); ++m) {
    const ModulePolicy& p = policies_[m];
    if (p.trust >= num_categories_) {
      if (error)
        *error = "module " + std::to_string(m) +
                 ": trust category out of range";
      return false;
    }
    if (((p.accepted >> p.trust) & 1u) == 0) {
      if (error)
        *error = "module " + std::to_string(m) +
                 " does not accept its own trust category";
      return false;
    }
  }
  return true;
}

int TokenSet::first_common(const TokenSet& o) const {
  for (std::size_t k = 0; k < w_.size(); ++k) {
    if (const std::uint64_t common = w_[k] & o.w_[k])
      return static_cast<int>(k * 64 + std::countr_zero(common));
  }
  return -1;
}

std::size_t TokenSet::count_common(const TokenSet& o) const {
  std::size_t c = 0;
  for (std::size_t k = 0; k < w_.size(); ++k)
    c += static_cast<std::size_t>(std::popcount(w_[k] & o.w_[k]));
  return c;
}

TokenTable::TokenTable(const SecuritySpec& spec, std::size_t num_modules) {
  module_token_.assign(num_modules, -1);
  const std::uint32_t all_mask =
      (spec.num_categories() >= 32)
          ? 0xffffffffu
          : ((1u << spec.num_categories()) - 1u);
  for (std::size_t m = 0; m < num_modules; ++m) {
    std::uint32_t mask =
        spec.policy(static_cast<netlist::ModuleId>(m)).accepted & all_mask;
    if (mask == all_mask) continue;  // fully permissive: no token needed
    int id = -1;
    for (std::size_t k = 0; k < masks_.size(); ++k) {
      if (masks_[k] == mask) {
        id = static_cast<int>(k);
        break;
      }
    }
    if (id < 0) {
      if (masks_.size() >= TokenSet::capacity)
        throw std::runtime_error("too many distinct sensitivity classes");
      id = static_cast<int>(masks_.size());
      masks_.push_back(mask);
    }
    module_token_[m] = id;
  }
  bad_.resize(spec.num_categories());
  for (std::size_t t = 0; t < spec.num_categories(); ++t) {
    for (std::size_t k = 0; k < masks_.size(); ++k) {
      if (((masks_[k] >> t) & 1u) == 0) bad_[t].set(k);
    }
  }
}

int TokenTable::token_of(netlist::ModuleId m) const {
  if (m < 0 || static_cast<std::size_t>(m) >= module_token_.size()) return -1;
  return module_token_[static_cast<std::size_t>(m)];
}

}  // namespace rsnsec::security
