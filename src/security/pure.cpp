#include "security/pure.hpp"

#include <cassert>

#include "security/violation_index.hpp"

namespace rsnsec::security {

using rsn::ElemId;
using rsn::ElemKind;
using rsn::Rsn;

PureScanAnalyzer::PureScanAnalyzer(const SecuritySpec& spec,
                                   const TokenTable& tokens)
    : spec_(spec), tokens_(tokens) {}

int PureScanAnalyzer::register_token(const Rsn& network, ElemId reg) const {
  return tokens_.token_of(network.elem(reg).module);
}

namespace {

/// Topological order of RSN elements along connection edges (drivers
/// before consumers). The network is acyclic by invariant.
std::vector<ElemId> topo_order(const Rsn& network) {
  std::vector<std::uint32_t> pending(network.num_elements(), 0);
  std::vector<std::vector<ElemId>> fanout(network.num_elements());
  for (ElemId id = 0; id < network.num_elements(); ++id) {
    for (ElemId in : network.elem(id).inputs) {
      if (in == rsn::no_elem) continue;
      ++pending[id];
      fanout[in].push_back(id);
    }
  }
  std::vector<ElemId> ready, order;
  for (ElemId id = 0; id < network.num_elements(); ++id)
    if (pending[id] == 0) ready.push_back(id);
  while (!ready.empty()) {
    ElemId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (ElemId s : fanout[id])
      if (--pending[s] == 0) ready.push_back(s);
  }
  return order;
}

}  // namespace

std::vector<TokenSet> PureScanAnalyzer::propagate(const Rsn& network) const {
  std::vector<TokenSet> out(network.num_elements());
  for (ElemId id : topo_order(network)) {
    const rsn::Element& e = network.elem(id);
    for (ElemId in : e.inputs) {
      if (in != rsn::no_elem) out[id].merge(out[in]);
    }
    if (e.kind == ElemKind::Register) {
      int tok = register_token(network, id);
      if (tok >= 0) out[id].set(static_cast<std::size_t>(tok));
    }
  }
  return out;
}

bool PureScanAnalyzer::violates(const Rsn& network, ElemId reg,
                                const TokenSet& incoming) const {
  TrustCategory t = spec_.policy(network.elem(reg).module).trust;
  return incoming.intersects(tokens_.bad(t));
}

std::size_t PureScanAnalyzer::count_violating_registers(
    const Rsn& network) const {
  std::vector<TokenSet> out = propagate(network);
  std::size_t n = 0;
  for (ElemId reg : network.registers()) {
    TokenSet incoming;
    for (ElemId in : network.elem(reg).inputs)
      if (in != rsn::no_elem) incoming.merge(out[in]);
    if (violates(network, reg, incoming)) ++n;
  }
  return n;
}

std::size_t PureScanAnalyzer::count_violating_pairs(
    const Rsn& network) const {
  std::vector<TokenSet> out = propagate(network);
  std::size_t n = 0;
  for (ElemId reg : network.registers()) {
    TokenSet incoming;
    for (ElemId in : network.elem(reg).inputs)
      if (in != rsn::no_elem) incoming.merge(out[in]);
    TrustCategory t = spec_.policy(network.elem(reg).module).trust;
    n += incoming.count_common(tokens_.bad(t));
  }
  return n;
}

std::optional<PureViolation> PureScanAnalyzer::find_violation(
    const Rsn& network) const {
  return trace_violation(network, propagate(network));
}

std::optional<PureViolation> PureScanAnalyzer::trace_violation(
    const Rsn& network, const std::vector<TokenSet>& out) const {
  for (ElemId reg : network.registers()) {
    TokenSet incoming;
    for (ElemId in : network.elem(reg).inputs)
      if (in != rsn::no_elem) incoming.merge(out[in]);
    TrustCategory t = spec_.policy(network.elem(reg).module).trust;
    int tok = incoming.first_common(tokens_.bad(t));
    if (tok < 0) continue;

    // Trace a witnessing path: walk backward over drivers that carry the
    // token until a register that contributes it.
    PureViolation v;
    v.victim = reg;
    v.token = tok;
    std::vector<ElemId> parent(network.num_elements(), rsn::no_elem);
    std::vector<bool> seen(network.num_elements(), false);
    std::vector<ElemId> queue;
    seen[reg] = true;
    queue.push_back(reg);
    ElemId origin = rsn::no_elem;
    for (std::size_t qi = 0; qi < queue.size() && origin == rsn::no_elem;
         ++qi) {
      ElemId cur = queue[qi];
      for (ElemId in : network.elem(cur).inputs) {
        if (in == rsn::no_elem || seen[in]) continue;
        if (!out[in].test(static_cast<std::size_t>(tok))) continue;
        seen[in] = true;
        parent[in] = cur;
        if (network.elem(in).kind == ElemKind::Register &&
            register_token(network, in) == tok) {
          origin = in;
          break;
        }
        queue.push_back(in);
      }
    }
    assert(origin != rsn::no_elem && "token present but no origin found");
    v.origin = origin;
    for (ElemId cur = origin; cur != rsn::no_elem; cur = parent[cur])
      v.path.push_back(cur);
    return v;
  }
  return std::nullopt;
}

PureStats PureScanAnalyzer::detect_and_resolve(
    Rsn& network, std::vector<AppliedChange>* log,
    ResolutionPolicy policy, const ChangeCallback& on_change,
    const ResolveOptions& resolve_options) {
  return resolve_with_index<PureStats, PureViolationIndex>(
      "pure", *this, network, log, policy, on_change, resolve_options,
      [&network](const PureViolation& v) {
        // Candidate cuts: every connection along the witnessing path.
        std::vector<Connection> candidates;
        for (std::size_t i = 0; i + 1 < v.path.size(); ++i) {
          const rsn::Element& to = network.elem(v.path[i + 1]);
          for (std::size_t p = 0; p < to.inputs.size(); ++p) {
            if (to.inputs[p] == v.path[i])
              candidates.push_back({v.path[i], v.path[i + 1], p});
          }
        }
        return candidates;
      },
      [&network](const PureViolation& v) {
        // Guaranteed-progress fallback: isolate the last register on the
        // path before the victim (or the origin itself).
        ElemId iso = v.origin;
        for (std::size_t i = 0; i + 1 < v.path.size(); ++i) {
          if (network.elem(v.path[i]).kind == ElemKind::Register)
            iso = v.path[i];
        }
        return iso;
      });
}

}  // namespace rsnsec::security
