#include "dep/analyzer.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <utility>

#include "flow/ternary.hpp"
#include "netlist/cone_check.hpp"
#include "netlist/cone_workspace.hpp"
#include "netlist/sim.hpp"
#include "obs/trace.hpp"

namespace rsnsec::dep {

using netlist::Cone;
using netlist::GateType;
using netlist::NodeId;

namespace {

/// PartitionMode::Auto switches to the tiled matrices at this many circuit
/// flip-flops: below it the dense planes fit comfortably in cache and the
/// dense kernels win; above it the n^2/8 plane bytes start to dominate the
/// analysis footprint (4096 FFs = 4 MiB of planes, growing quadratically).
constexpr std::size_t kAutoPartitionFfs = 4096;
/// Region sizing of the deterministic partition: close a region once it
/// holds kRegionTargetFfs flip-flops, or earlier at a module boundary once
/// it holds at least kRegionMinFfs (so per-module instruments — the
/// dependency-local unit of MBIST/BASTION designs — keep their internal
/// flip-flops inside one region's diagonal block).
constexpr std::size_t kRegionTargetFfs = 1024;
constexpr std::size_t kRegionMinFfs = 256;

/// Seed of the private RNG stream of a cone (splitmix64 finalizer over
/// (seed, cone signature hash)). Hashing the *signature* rather than
/// drawing from one sequential stream gives isomorphic cones identical
/// pattern streams, so one cone's sim/SAT verdicts are valid verbatim for
/// every cone of the same shape — the basis of the cone cache.
std::uint64_t cone_seed(std::uint64_t seed, std::uint64_t sig_hash) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (sig_hash + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Canonical structural signature of a combinational cone. Two cones with
/// equal signatures are isomorphic in every way cone_deps can observe:
/// same leaf count and per-leaf node types (FF vs. input vs. constant —
/// which fixes the ff_leaves set, the constant-pinning of the sim
/// prefilter, and ConeDependenceChecker's constant handling), same gates
/// in the same topological order with the same types, and same fanin
/// wiring in cone-local coordinates (leaf i -> code i, gate g -> code
/// L + g). eval_cone and the two-copy CNF encoding read exactly this
/// structure, so equal signatures imply identical simulation values and
/// an identical CNF modulo variable names — hence identical verdicts,
/// including Unknown outcomes under the same conflict limit.
struct ConeSignature {
  std::vector<std::uint32_t> data;
  std::uint64_t hash = 0;

  friend bool operator==(const ConeSignature& a, const ConeSignature& b) {
    return a.hash == b.hash && a.data == b.data;
  }
};

ConeSignature cone_signature(const Cone& cone, netlist::ConeWorkspace& ws) {
  const netlist::Netlist& nl = ws.netlist();
  ConeSignature sig;
  const std::size_t nl_leaves = cone.leaves.size();
  sig.data.reserve(2 + nl_leaves + 2 * cone.gates.size() + 8);
  // Cone-local code of a node: leaves first, then gates (matching the
  // variable-allocation order of the CNF encoding and the evaluation
  // order of eval_cone).
  EpochMap<std::uint32_t>& codes = ws.node_code;
  codes.reset(nl.num_nodes());
  for (std::size_t i = 0; i < nl_leaves; ++i)
    codes.set(cone.leaves[i], static_cast<std::uint32_t>(i));
  for (std::size_t g = 0; g < cone.gates.size(); ++g)
    codes.set(cone.gates[g], static_cast<std::uint32_t>(nl_leaves + g));
  auto local_code = [&](NodeId id) { return codes.get(id, 0xffffffffu); };
  sig.data.push_back(static_cast<std::uint32_t>(nl_leaves));
  for (NodeId leaf : cone.leaves)
    sig.data.push_back(static_cast<std::uint32_t>(nl.node(leaf).type));
  sig.data.push_back(static_cast<std::uint32_t>(cone.gates.size()));
  for (NodeId g : cone.gates) {
    const netlist::Node& n = nl.node(g);
    sig.data.push_back(static_cast<std::uint32_t>(n.type));
    sig.data.push_back(static_cast<std::uint32_t>(n.fanins.size()));
    for (NodeId f : n.fanins) sig.data.push_back(local_code(f));
  }
  sig.data.push_back(cone.root == netlist::no_node ? 0xfffffffeu
                                                   : local_code(cone.root));
  std::uint64_t h = 0x243f6a8885a308d3ULL;  // fractional digits of pi
  for (std::uint32_t w : sig.data) {
    h ^= w;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  sig.hash = h;
  return sig;
}

}  // namespace

/// The scratch of the one-cycle phase: the cone workspace and the ternary
/// evaluator, both sized to the netlist once. compute_one_cycle() owns the
/// one slot, so it is freed before run() returns.
struct DependencyAnalyzer::ConeSlot {
  explicit ConeSlot(const netlist::Netlist& nl) : ws(nl), ternary(nl) {}
  netlist::ConeWorkspace ws;
  flow::TernaryEvaluator ternary;
};

DependencyAnalyzer::DependencyAnalyzer(const netlist::Netlist& nl,
                                       const rsn::Rsn& network,
                                       DepOptions options)
    : nl_(nl), rsn_(network), options_(options) {
  // Representation choice is a pure function of options and circuit, so
  // run() and restore() agree on it and cache keys can include it.
  tiled_ = options_.partition == PartitionMode::Tiled ||
           (options_.partition == PartitionMode::Auto &&
            nl_.ffs().size() >= kAutoPartitionFfs);
}

void DependencyAnalyzer::build_index() {
  ff_nodes_ = nl_.ffs();
  ff_index_.assign(nl_.num_nodes(), static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < ff_nodes_.size(); ++i)
    ff_index_[ff_nodes_[i]] = i;
  stats_.circuit_ffs = ff_nodes_.size();

  reg_slot_.assign(rsn_.num_elements(), static_cast<std::size_t>(-1));
  capture_deps_.clear();
  capture_deps_.reserve(rsn_.registers().size());
  for (rsn::ElemId r : rsn_.registers()) {
    reg_slot_[r] = capture_deps_.size();
    capture_deps_.emplace_back(rsn_.elem(r).ffs.size());
  }
  partition_regions();
}

void DependencyAnalyzer::partition_regions() {
  region_first_block_.clear();
  stats_.regions = 0;
  if (!tiled_) return;
  const std::size_t nb = (ff_nodes_.size() + 63) / 64;
  region_first_block_.push_back(0);
  if (nb == 0) return;
  // Walk the dense index space in 64-wide blocks (regions are 64-aligned
  // so every intra-region dependency lives in a diagonal-block tile of
  // the partition). A block belongs to the module of its first flip-flop;
  // a region closes at the size target, or earlier at a module boundary
  // once it is big enough to be worth bridging locally. Deterministic:
  // depends only on the circuit's FF order and module tags.
  auto block_module = [&](std::size_t b) {
    return nl_.node(ff_nodes_[b * 64]).module;
  };
  for (std::size_t b = 1; b < nb; ++b) {
    const std::size_t region_ffs = (b - region_first_block_.back()) * 64;
    if (region_ffs >= kRegionTargetFfs ||
        (block_module(b) != block_module(b - 1) &&
         region_ffs >= kRegionMinFfs)) {
      region_first_block_.push_back(b);
    }
  }
  region_first_block_.push_back(nb);  // sentinel
  stats_.regions = region_first_block_.size() - 1;
}

void DependencyAnalyzer::refresh_matrix_stats() {
  if (tiled_) {
    stats_.matrix_bytes =
        one_cycle_tiled_.memory_bytes() + closure_tiled_.memory_bytes();
    stats_.tiles_nonzero =
        one_cycle_tiled_.tiles_nonzero() + closure_tiled_.tiles_nonzero();
    stats_.tiles_spilled =
        one_cycle_tiled_.tiles_spilled() + closure_tiled_.tiles_spilled();
  } else {
    stats_.matrix_bytes = one_cycle_.memory_bytes() + closure_.memory_bytes();
    stats_.tiles_nonzero = 0;
    stats_.tiles_spilled = 0;
  }
}

void DependencyAnalyzer::classify_internal(
    std::span<const Cone> capture_cones) {
  // A circuit flip-flop is "directly connected to the RSN" if it is an
  // update target of some scan FF or a leaf of some scan FF's capture
  // cone; every other flip-flop is internal (IF1/IF2 in Fig. 1) and gets
  // bridged out of the relation.
  std::vector<bool> connected(nl_.num_nodes(), false);
  for (rsn::ElemId r : rsn_.registers()) {
    for (const rsn::ScanFF& sf : rsn_.elem(r).ffs) {
      if (sf.update_dst != netlist::no_node) connected[sf.update_dst] = true;
    }
  }
  for (const Cone& cone : capture_cones) {
    for (NodeId leaf : cone.leaves) {
      if (nl_.is_ff(leaf)) connected[leaf] = true;
    }
  }
  internal_.assign(ff_nodes_.size(), false);
  for (std::size_t i = 0; i < ff_nodes_.size(); ++i) {
    internal_[i] = !connected[ff_nodes_[i]];
    if (internal_[i]) ++stats_.internal_ffs;
  }
}

std::vector<DependencyAnalyzer::LeafDep> DependencyAnalyzer::cone_deps(
    const Cone& cone, Rng& rng, DepStats& stats, ConeSlot& slot) const {
  std::vector<LeafDep> out;

  // Special case: the cone start is itself a leaf (direct FF-to-FF wire);
  // extract_cone then reports that single leaf.
  std::vector<std::size_t> ff_leaves;
  for (std::size_t i = 0; i < cone.leaves.size(); ++i) {
    if (nl_.is_ff(cone.leaves[i])) ff_leaves.push_back(i);
  }
  if (ff_leaves.empty()) return out;

  if (options_.mode == DepMode::StructuralOnly) {
    // Over-approximation of Sec. IV-C: every structural connection is
    // treated as if data could propagate.
    for (std::size_t i : ff_leaves) out.push_back({i, DepKind::Path});
    return out;
  }

  // Random-simulation prefilter: a propagation witness under 256
  // parallel patterns (a 4x64-bit SIMD pattern block per leaf) proves
  // functional dependence without any SAT call. One round: on every
  // Table I grid and full-size design measured, further rounds witnessed
  // no leaf the first left undecided. The buffers are the slot's, and
  // every leaf pattern is written before it is read. Determinism
  // contract: every leaf draws its four lanes in lane order from the
  // cone's private stream, so verdicts depend only on the cone.
  std::vector<bool> decided(cone.leaves.size(), false);
  std::vector<netlist::Word256>& base = slot.ws.leaf_values;
  std::vector<netlist::Word256>& scratch = slot.ws.node_values;
  base.resize(cone.leaves.size());
  std::size_t undecided = ff_leaves.size();
  for (std::size_t i = 0; i < cone.leaves.size(); ++i) {
    GateType t = nl_.node(cone.leaves[i]).type;
    if (t == GateType::Const0) {
      base[i] = netlist::Word256::zero();
    } else if (t == GateType::Const1) {
      base[i] = netlist::Word256::broadcast(true);
    } else {
      for (std::uint64_t& lane : base[i].lane) lane = rng.next_u64();
    }
  }
  const netlist::Word256 f0 = netlist::eval_cone(nl_, cone, base, scratch);
  for (std::size_t i : ff_leaves) {
    netlist::Word256 saved = base[i];
    for (int lane = 0; lane < 4; ++lane)
      base[i].lane[lane] = ~saved.lane[lane];
    netlist::Word256 f1 = netlist::eval_cone(nl_, cone, base, scratch);
    base[i] = saved;
    if ((f0 ^ f1).any()) {
      decided[i] = true;
      --undecided;
      ++stats.sim_resolved;
      out.push_back({i, DepKind::Path});
    }
  }

  if (undecided > 0 && options_.ternary_prefilter) {
    // Pair-ternary triage: prove leaves only-structural by abstract
    // evaluation of the cone. Each proof is exactly an UNSAT certificate,
    // so it removes the SAT query without changing its classification.
    // The evaluator is the slot's; it writes every cone node it reads.
    for (std::size_t i : ff_leaves) {
      if (decided[i]) continue;
      if (slot.ternary.proves_independent(cone, i)) {
        decided[i] = true;
        --undecided;
        ++stats.ternary_resolved;
        out.push_back({i, DepKind::Structural});
      }
    }
  }

  if (undecided > 0) {
    // Exact SAT check for the leaves simulation could not witness. The
    // checker resets and borrows the slot's solver; the exact reset keeps
    // every verdict and solver counter independent of the cones the
    // solver ran before.
    netlist::ConeDependenceChecker checker(slot.ws, cone,
                                           options_.sat_conflict_limit);
    for (std::size_t i : ff_leaves) {
      if (decided[i]) continue;
      ++stats.sat_calls;
      switch (checker.query(i)) {
        case sat::Result::Sat:
          ++stats.sat_functional;
          out.push_back({i, DepKind::Path});
          break;
        case sat::Result::Unsat:
          ++stats.sat_structural;
          out.push_back({i, DepKind::Structural});
          break;
        case sat::Result::Unknown:
          // Conflict budget exhausted: sound over-approximation — treat
          // the dependency as functional (a missed real flow would be
          // unsound for security; a false Path only costs precision).
          ++stats.sat_unknown;
          out.push_back({i, DepKind::Path});
          break;
      }
    }
    // Solver work counters; the caller aggregates them once per
    // isomorphism-group representative (not per cache member).
    const sat::SolverStats& ss = checker.solver_stats();
    stats.solver_solves += checker.solver_solves();
    stats.solver_conflicts += ss.conflicts;
    stats.solver_decisions += ss.decisions;
    stats.solver_propagations += ss.propagations;
    stats.solver_restarts += ss.restarts;
    stats.solver_learned += ss.learned_clauses;
    stats.lbd_protected += ss.lbd_protected;
    stats.cores_reused += checker.cores_reused();
    stats.rotation_witnesses += checker.rotation_witnesses();
  }
  return out;
}

void DependencyAnalyzer::compute_one_cycle() {
  if (tiled_) {
    one_cycle_tiled_ = TiledDepMatrix(ff_nodes_.size());
    if (options_.spill_backend != nullptr && options_.tile_spill_budget > 0) {
      one_cycle_tiled_.set_spill(options_.spill_backend,
                                 options_.tile_spill_budget);
    }
  } else {
    one_cycle_ = DepMatrix(ff_nodes_.size());
  }

  // One task per cone: first every circuit flip-flop's next-state cone,
  // then every scan FF's capture cone.
  struct CaptureTask {
    std::size_t slot, ff;
    NodeId src;
  };
  std::vector<CaptureTask> capture_tasks;
  for (rsn::ElemId r : rsn_.registers()) {
    const rsn::Element& e = rsn_.elem(r);
    for (std::size_t f = 0; f < e.ffs.size(); ++f) {
      if (e.ffs[f].capture_src != netlist::no_node)
        capture_tasks.push_back({reg_slot_[r], f, e.ffs[f].capture_src});
    }
  }
  const std::size_t nff = ff_nodes_.size();
  const std::size_t ntasks = nff + capture_tasks.size();

  // Every cone below is extracted and classified in this one slot, so
  // every netlist-sized buffer is allocated once per run instead of once
  // per cone.
  ConeSlot slot(nl_);

  // Phase 1: extract every task's cone and its canonical signature. The
  // capture cones' leaves also decide which flip-flops are internal.
  std::vector<Cone> cones(ntasks);
  std::vector<ConeSignature> sigs(ntasks);
  for (std::size_t t = 0; t < ntasks; ++t) {
    if (t < nff) {
      slot.ws.extract_next_state_cone(ff_nodes_[t], cones[t]);
    } else {
      slot.ws.extract_signal_cone(capture_tasks[t - nff].src, cones[t]);
    }
    sigs[t] = cone_signature(cones[t], slot.ws);
  }
  classify_internal(std::span<const Cone>(cones).subspan(nff));

  // Phase 2: group isomorphic cones. The representative of a group is
  // its lowest task index; membership is decided by full signature
  // equality — the 64-bit hash only buckets, so a hash collision can
  // never make two different cones share verdicts.
  std::vector<std::size_t> group_of(ntasks);
  std::vector<std::size_t> reps;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  buckets.reserve(ntasks);
  for (std::size_t t = 0; t < ntasks; ++t) {
    std::vector<std::size_t>& bucket = buckets[sigs[t].hash];
    std::size_t g = static_cast<std::size_t>(-1);
    for (std::size_t cand : bucket) {
      if (sigs[reps[cand]] == sigs[t]) {
        g = cand;
        break;
      }
    }
    if (g == static_cast<std::size_t>(-1)) {
      g = reps.size();
      reps.push_back(t);
      bucket.push_back(g);
    }
    group_of[t] = g;
  }

  // Phase 3: classify one representative per group. The RNG stream is a
  // pure function of (seed, signature), so a representative's verdicts
  // are bit for bit what classifying any member would produce.
  std::vector<std::vector<LeafDep>> group_results(reps.size());
  std::vector<DepStats> group_stats(reps.size());
  for (std::size_t g = 0; g < reps.size(); ++g) {
    Rng rng(cone_seed(options_.seed, sigs[reps[g]].hash));
    group_results[g] = cone_deps(cones[reps[g]], rng, group_stats[g], slot);
  }

  // Phase 4: distribute verdicts (translating cone-local
  // leaf indices back to each member's own leaves) and counters in task
  // order. Counters are replicated per member — the cache saves work, not
  // logical results — so every classification counter matches
  // classifying each cone on its own.
  for (std::size_t t = 0; t < ntasks; ++t) {
    const std::size_t g = group_of[t];
    const Cone& cone = cones[t];
    if (t < nff) {
      for (const LeafDep& d : group_results[g]) {
        const std::size_t src = circuit_index(cone.leaves[d.leaf_idx]);
        if (tiled_) {
          one_cycle_tiled_.upgrade(src, t, d.kind);
        } else {
          one_cycle_.upgrade(src, t, d.kind);
        }
      }
    } else {
      const CaptureTask& ct = capture_tasks[t - nff];
      std::vector<CaptureDep>& deps = capture_deps_[ct.slot][ct.ff];
      deps.clear();
      deps.reserve(group_results[g].size());
      for (const LeafDep& d : group_results[g])
        deps.push_back({cone.leaves[d.leaf_idx], d.kind});
    }
    const DepStats& s = group_stats[g];
    stats_.sim_resolved += s.sim_resolved;
    stats_.ternary_resolved += s.ternary_resolved;
    stats_.sat_calls += s.sat_calls;
    stats_.sat_functional += s.sat_functional;
    stats_.sat_structural += s.sat_structural;
    stats_.sat_unknown += s.sat_unknown;
    if (t != reps[g]) ++stats_.cone_cache_hits;
  }

  // Solver work counters are aggregated once per representative: they
  // report *actual* solver effort, so replicating them per cache member
  // (like the logical classification counters above) would be a lie.
  for (const DepStats& s : group_stats) {
    stats_.solver_solves += s.solver_solves;
    stats_.solver_conflicts += s.solver_conflicts;
    stats_.solver_decisions += s.solver_decisions;
    stats_.solver_propagations += s.solver_propagations;
    stats_.solver_restarts += s.solver_restarts;
    stats_.solver_learned += s.solver_learned;
    stats_.lbd_protected += s.lbd_protected;
    stats_.cores_reused += s.cores_reused;
    stats_.rotation_witnesses += s.rotation_witnesses;
  }

  std::vector<bool> denoted(ff_nodes_.size(), false);
  if (tiled_) {
    stats_.deps_before_bridging = one_cycle_tiled_.count_nonzero();
    one_cycle_tiled_.mark_endpoints(denoted);
  } else {
    stats_.deps_before_bridging = one_cycle_.count_nonzero();
    one_cycle_.mark_endpoints(denoted);
  }
  for (bool d : denoted) stats_.denoted_ffs_before += d ? 1u : 0u;
}

void DependencyAnalyzer::bridge_internal() {
  const std::size_t n = ff_nodes_.size();
  if (tiled_) {
    closure_tiled_ = one_cycle_tiled_;  // deep copy, detached from spill
    if (options_.spill_backend != nullptr && options_.tile_spill_budget > 0) {
      closure_tiled_.set_spill(options_.spill_backend,
                               options_.tile_spill_budget);
    }
  } else {
    closure_ = one_cycle_;
  }
  if (!options_.bridge_internal) {
    stats_.deps_after_bridging = stats_.deps_before_bridging;
    stats_.denoted_ffs_after = stats_.denoted_ffs_before;
    return;
  }
  // Iteratively bridge every internal flip-flop v: compose each incoming
  // dependency (v on p) with each outgoing one (s on v) into (s on p),
  // then remove v from the relation (Fig. 3). Only-structural hops make
  // the composed dependency only-structural unless a path-dependent pair
  // is already known. Elimination of a *set* of nodes is order-
  // independent (each order yields the same bridged relation), which both
  // representations exploit below.
  if (!tiled_) {
    // Dense: one set elimination — word-parallel row updates per internal
    // flip-flop, and one masked pass that clears all their columns.
    closure_.eliminate_all(internal_);
  } else {
    // Partitioned: an internal flip-flop whose every dependency stays
    // inside its region can be bridged on a small dense matrix lifted
    // from the region's diagonal tiles, where the dense eliminate kernel
    // beats the tiled one. Only internals with at least one inter-region
    // edge ("cross") must be eliminated on the global tiled matrix.
    // Order-independence of elimination makes the reordering (locals
    // per region, then crosses) produce exactly the dense oracle's
    // relation.
    const std::size_t nb = closure_tiled_.num_blocks();
    std::vector<std::size_t> region_of(nb);
    const std::size_t num_regions =
        region_first_block_.empty() ? 0 : region_first_block_.size() - 1;
    for (std::size_t r = 0; r < num_regions; ++r) {
      for (std::size_t b = region_first_block_[r];
           b < region_first_block_[r + 1]; ++b)
        region_of[b] = r;
    }
    // An endpoint of any inter-region edge is cross. Sweeping tiles (not
    // entries) keeps this O(nonzero tiles): row indices come from
    // non-zero S rows, column indices from the OR of the S rows.
    std::vector<bool> cross(n, false);
    closure_tiled_.for_each_tile([&](std::size_t rb, std::size_t cb,
                                     const TiledDepMatrix::Tile& t) {
      if (region_of[rb] == region_of[cb]) return;
      std::uint64_t colmask = 0;
      for (std::size_t r = 0; r < 64; ++r) {
        if (t.s[r] == 0) continue;
        cross[rb * 64 + r] = true;
        colmask |= t.s[r];
      }
      while (colmask != 0) {
        const int c = __builtin_ctzll(colmask);
        colmask &= colmask - 1;
        cross[cb * 64 + static_cast<std::size_t>(c)] = true;
      }
    });
    for (std::size_t reg = 0; reg < num_regions; ++reg) {
      const std::size_t b0 = region_first_block_[reg];
      const std::size_t b1 = region_first_block_[reg + 1];
      const std::size_t base = b0 * 64;
      const std::size_t m = std::min(n, b1 * 64) - base;
      bool any_local = false;
      for (std::size_t v = base; v < base + m && !any_local; ++v)
        any_local = internal_[v] && !cross[v];
      if (!any_local) continue;
      // Lift the region's diagonal block (the only tiles a local
      // internal's edges can touch) into a dense m-by-m matrix. Regions
      // are 64-aligned, so tile words copy straight into plane words.
      const std::size_t wpr = (m + 63) / 64;
      std::vector<std::uint64_t> s(m * wpr, 0);
      std::vector<std::uint64_t> p(m * wpr, 0);
      for (std::size_t rb = b0; rb < b1; ++rb) {
        const std::size_t rbase = (rb - b0) * 64;
        const std::size_t rows = std::min<std::size_t>(64, m - rbase);
        for (std::size_t cb = b0; cb < b1; ++cb) {
          const TiledDepMatrix::Tile* t = closure_tiled_.tile_at(rb, cb);
          if (t == nullptr) continue;
          for (std::size_t r = 0; r < rows; ++r) {
            s[(rbase + r) * wpr + (cb - b0)] = t->s[r];
            p[(rbase + r) * wpr + (cb - b0)] = t->p[r];
          }
        }
      }
      DepMatrix local;
      const bool ok = DepMatrix::from_planes(m, std::move(s), std::move(p),
                                             &local);
      assert(ok);
      (void)ok;
      std::vector<bool> local_internal(m);
      for (std::size_t v = base; v < base + m; ++v)
        local_internal[v - base] = internal_[v] && !cross[v];
      local.eliminate_all(local_internal);
      // Write the bridged diagonal block back tile by tile.
      const std::vector<std::uint64_t>& ls = local.plane_s();
      const std::vector<std::uint64_t>& lp = local.plane_p();
      for (std::size_t rb = b0; rb < b1; ++rb) {
        const std::size_t rbase = (rb - b0) * 64;
        const std::size_t rows = std::min<std::size_t>(64, m - rbase);
        for (std::size_t cb = b0; cb < b1; ++cb) {
          TiledDepMatrix::Tile t{};
          for (std::size_t r = 0; r < rows; ++r) {
            t.s[r] = ls[(rbase + r) * wpr + (cb - b0)];
            t.p[r] = lp[(rbase + r) * wpr + (cb - b0)];
          }
          closure_tiled_.assign_tile(rb, cb, t);
        }
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (internal_[v] && cross[v]) closure_tiled_.eliminate(v);
    }
  }
  std::vector<bool> denoted(n, false);
  if (tiled_) {
    stats_.deps_after_bridging = closure_tiled_.count_nonzero();
    closure_tiled_.mark_endpoints(denoted);
  } else {
    stats_.deps_after_bridging = closure_.count_nonzero();
    closure_.mark_endpoints(denoted);
  }
  for (bool d : denoted) stats_.denoted_ffs_after += d ? 1u : 0u;
}

void DependencyAnalyzer::compute_closure() {
  std::vector<bool> active(ff_nodes_.size());
  for (std::size_t i = 0; i < ff_nodes_.size(); ++i)
    active[i] = !options_.bridge_internal || !internal_[i];
  if (tiled_) {
    closure_tiled_.transitive_closure(&active);
  } else {
    closure_.transitive_closure(&active);
  }
  if (tiled_) {
    stats_.closure_deps = closure_tiled_.count_nonzero();
    stats_.closure_path_deps = closure_tiled_.count_path();
  } else {
    stats_.closure_deps = closure_.count_nonzero();
    stats_.closure_path_deps = closure_.count_path();
  }
}

void DependencyAnalyzer::run() {
  // Each phase is one trace span; Span::seconds() feeds the same DepStats
  // wall-clock fields the old per-phase stopwatches filled, so the
  // BENCH_dep.json schema and existing consumers are unchanged.
  obs::TraceSession* trace = obs::TraceSession::active();
  obs::Span analysis_span(trace, "dep.analysis");
  {
    obs::Span span(trace, "dep.setup");
    build_index();
  }
  {
    obs::Span span(trace, "dep.one_cycle");
    compute_one_cycle();
    stats_.t_one_cycle = span.seconds();
  }
  {
    obs::Span span(trace, "dep.bridge");
    bridge_internal();
    stats_.t_bridge = span.seconds();
  }
  {
    obs::Span span(trace, "dep.closure");
    compute_closure();
    stats_.t_closure = span.seconds();
  }
  refresh_matrix_stats();
  if (trace != nullptr) {
    trace->counter("dep.runs").add(1);
    trace->counter("dep.sim_resolved").add(stats_.sim_resolved);
    trace->counter("dep.ternary_resolved").add(stats_.ternary_resolved);
    trace->counter("dep.sat_calls").add(stats_.sat_calls);
    trace->counter("dep.sat_unknown").add(stats_.sat_unknown);
    trace->counter("dep.cone_cache_hits").add(stats_.cone_cache_hits);
    trace->counter("dep.solver_solves").add(stats_.solver_solves);
    trace->counter("dep.cores_reused").add(stats_.cores_reused);
    trace->counter("dep.rotation_witnesses").add(stats_.rotation_witnesses);
    trace->counter("dep.deps_after_bridging")
        .add(stats_.deps_after_bridging);
    trace->counter("dep.closure_deps").add(stats_.closure_deps);
    trace->counter("dep.regions").add(stats_.regions);
    trace->counter("dep.matrix_bytes").add(stats_.matrix_bytes);
    trace->counter("dep.tiles_nonzero").add(stats_.tiles_nonzero);
    trace->counter("dep.tiles_spilled").add(stats_.tiles_spilled);
  }
}

const std::vector<CaptureDep>& DependencyAnalyzer::capture_deps(
    rsn::ElemId reg, std::size_t ff) const {
  return capture_deps_[reg_slot_[reg]][ff];
}

DependencyAnalyzer::AnalysisSnapshot DependencyAnalyzer::snapshot() const {
  AnalysisSnapshot snap;
  snap.internal = internal_;
  snap.tiled = tiled_;
  if (tiled_) {
    // The copies fault every spilled tile in and detach from the backend:
    // a snapshot is self-contained by definition.
    snap.one_cycle_tiled = one_cycle_tiled_;
    snap.closure_tiled = closure_tiled_;
  } else {
    snap.one_cycle = one_cycle_;
    snap.closure = closure_;
  }
  snap.capture_deps = capture_deps_;
  snap.stats = stats_;
  return snap;
}

bool DependencyAnalyzer::restore(AnalysisSnapshot snap, std::string* error) {
  auto fail = [&](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  build_index();
  const std::size_t n = ff_nodes_.size();
  if (snap.tiled != tiled_)
    return fail("snapshot matrix representation does not match the analyzer");
  if (snap.internal.size() != n)
    return fail("internal-FF vector does not match the circuit");
  if (tiled_ ? (snap.one_cycle_tiled.size() != n ||
                snap.closure_tiled.size() != n)
             : (snap.one_cycle.size() != n || snap.closure.size() != n))
    return fail("matrix dimension does not match the circuit");
  if (snap.stats.circuit_ffs != n)
    return fail("stats do not match the circuit");
  if (snap.capture_deps.size() != capture_deps_.size())
    return fail("capture dependencies do not match the RSN registers");
  for (rsn::ElemId r : rsn_.registers()) {
    const std::size_t slot = reg_slot_[r];
    if (snap.capture_deps[slot].size() != rsn_.elem(r).ffs.size())
      return fail("capture dependencies do not match a register's scan FFs");
    for (const std::vector<CaptureDep>& deps : snap.capture_deps[slot]) {
      for (const CaptureDep& d : deps) {
        if (static_cast<std::size_t>(d.circuit_ff) >= nl_.num_nodes() ||
            !nl_.is_ff(d.circuit_ff))
          return fail("capture dependency references a non-FF node");
      }
    }
  }
  internal_ = std::move(snap.internal);
  if (tiled_) {
    one_cycle_tiled_ = std::move(snap.one_cycle_tiled);
    closure_tiled_ = std::move(snap.closure_tiled);
  } else {
    one_cycle_ = std::move(snap.one_cycle);
    closure_ = std::move(snap.closure);
  }
  capture_deps_ = std::move(snap.capture_deps);
  // regions was recomputed by build_index above (a pure function of the
  // circuit); the snapshot's copy is the same value, but prefer the live
  // one so a hand-edited blob cannot desynchronize stats from the
  // partition actually in effect.
  const std::size_t regions = stats_.regions;
  stats_ = snap.stats;
  stats_.regions = regions;
  stats_.t_one_cycle = 0.0;
  stats_.t_bridge = 0.0;
  stats_.t_closure = 0.0;
  // Footprint counters reflect the restored (fully resident, unspilled)
  // matrices, not the producing run's.
  refresh_matrix_stats();
  return true;
}

}  // namespace rsnsec::dep
