#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "netlist/netlist.hpp"
#include "rsn/rsn.hpp"
#include "util/dep_matrix.hpp"
#include "util/rng.hpp"
#include "util/tiled_matrix.hpp"

namespace rsnsec::dep {

/// How 1-cycle dependencies are classified (Sec. III-A / Sec. IV-C).
enum class DepMode : std::uint8_t {
  /// SAT-exact: distinguish functional (path) from only-structural
  /// dependencies, with a random-simulation prefilter (method of [18]).
  Exact,
  /// Over-approximate path-dependency by structural dependency: every
  /// structural connection is treated as if data could propagate. Fast
  /// (no SAT), but introduces false-positive violations (Sec. IV-C).
  StructuralOnly
};

/// Matrix representation / partitioning strategy of the analysis.
enum class PartitionMode : std::uint8_t {
  /// Dense below kAutoPartitionFfs circuit flip-flops, tiled above —
  /// small repro runs keep the exhaustively-tested dense kernels, large
  /// runs get the block-sparse memory footprint. Both produce the same
  /// bits, so the switch is purely a space/time trade.
  Auto = 0,
  /// Force the dense whole-design matrices (the oracle configuration).
  Dense = 1,
  /// Force the tiled matrices + region-partitioned bridging.
  Tiled = 2,
};

/// CLI/report spelling of a PartitionMode (the strings `--partition`
/// accepts).
inline const char* partition_name(PartitionMode m) {
  switch (m) {
    case PartitionMode::Dense:
      return "dense";
    case PartitionMode::Tiled:
      return "tiled";
    default:
      return "auto";
  }
}

/// Options of the dependency analysis.
struct DepOptions {
  DepMode mode = DepMode::Exact;
  /// Bridge internal flip-flops out of the relation (Sec. III-A.2). The
  /// multi-cycle closure is cubic in the number of participating
  /// flip-flops, so bridging is what makes large circuits feasible.
  bool bridge_internal = true;
  /// After the simulation prefilter, try to *prove* the remaining
  /// undecided leaves only-structural with the pair-ternary abstract
  /// evaluator (flow::TernaryEvaluator) before falling back to SAT. A
  /// proof replaces a query whose answer it already determines, so the
  /// resulting matrices are bit-identical with the prefilter off; only
  /// the sat_* / ternary_resolved counters shift. No effect in
  /// DepMode::StructuralOnly (no queries to remove).
  bool ternary_prefilter = true;
  /// Per-query SAT conflict limit; on Unknown the dependency is
  /// conservatively classified as functional (sound for security).
  std::uint64_t sat_conflict_limit = 200000;
  /// Seed for the simulation prefilter patterns. Every cone draws its
  /// patterns from a private stream seeded as hash(seed, cone signature):
  /// isomorphic cones share a signature, so one classification serves
  /// every cone of the same shape (the cone cache).
  std::uint64_t seed = 1;
  /// No effect: the analysis runs on the calling thread. Kept because the
  /// end-to-end benchmark harness (perfbench/harness.cpp) still sets it;
  /// excluded from cache keys.
  std::size_t num_threads = 0;
  /// Matrix representation: dense oracle, tiled, or size-based Auto.
  /// Bit-identical either way (pinned by the partitioned-oracle tests);
  /// participates in the cache key only because the snapshot payload
  /// format differs.
  PartitionMode partition = PartitionMode::Auto;
  /// Resident-byte budget per tiled matrix before tiles spill to
  /// `spill_backend` (0 = keep everything resident). Execution knob:
  /// results and every DepStats counter except the footprint pair
  /// tiles_spilled / matrix_bytes (resident bytes shrink with the budget)
  /// are identical for any budget, so it is not part of cache keys.
  std::uint64_t tile_spill_budget = 0;
  /// Out-of-core destination for spilled tiles (not owned; must outlive
  /// the analyzer). Typically a store::ArtifactSpillBackend. Ignored
  /// unless the effective partition mode is tiled and the budget is > 0.
  TileSpillBackend* spill_backend = nullptr;
};

/// Instrumentation counters of one analysis run.
struct DepStats {
  std::size_t circuit_ffs = 0;
  std::size_t internal_ffs = 0;          ///< bridged out (Sec. III-A.2)
  std::size_t denoted_ffs_before = 0;    ///< FFs with >= 1 dependency, pre-bridge
  std::size_t denoted_ffs_after = 0;
  std::size_t deps_before_bridging = 0;  ///< denoted 1-cycle dependencies
  std::size_t deps_after_bridging = 0;
  std::size_t closure_deps = 0;          ///< multi-cycle dependencies
  std::size_t closure_path_deps = 0;
  std::uint64_t sim_resolved = 0;  ///< functional deps proven by simulation
  /// Only-structural deps proven by the pair-ternary evaluator (each one
  /// is a SAT query avoided; 0 when DepOptions::ternary_prefilter is off).
  std::uint64_t ternary_resolved = 0;
  /// Exact queries (the leaves simulation and the ternary proof left
  /// open) and their answers, whichever engine decides them: exhaustive
  /// simulation on a cone of at most netlist::kExhaustiveLeaves
  /// non-constant leaves, which answers what the solver would, else SAT.
  std::uint64_t sat_calls = 0;
  std::uint64_t sat_functional = 0;
  std::uint64_t sat_structural = 0;
  /// Queries that exhausted DepOptions::sat_conflict_limit; each is
  /// conservatively classified as a functional (Path) dependency. Only
  /// the solver can run out, so only cones wider than kExhaustiveLeaves.
  std::uint64_t sat_unknown = 0;
  /// Cones whose classification was reused from an isomorphic cone. All
  /// other counters report the logical work — a cache hit replicates the
  /// representative's sim/SAT counters — so they match classifying every
  /// cone on its own bit for bit.
  std::uint64_t cone_cache_hits = 0;
  /// Solver work counters. Unlike the classification counters above,
  /// these measure *actual* work: they are aggregated once per
  /// isomorphism-group representative, not replicated per cache member,
  /// so they shrink as the cone cache and the incremental machinery bite.
  /// The exhaustive check of small cones does no solver work, so they
  /// count only the cones wider than kExhaustiveLeaves.
  std::uint64_t solver_solves = 0;    ///< solver solve() calls issued
  std::uint64_t solver_conflicts = 0;
  std::uint64_t solver_decisions = 0;
  std::uint64_t solver_propagations = 0;
  std::uint64_t solver_restarts = 0;
  std::uint64_t solver_learned = 0;
  std::uint64_t lbd_protected = 0;       ///< glue clauses (LBD <= 2) learned
  std::uint64_t cores_reused = 0;        ///< leaves discharged by Unsat cores
  std::uint64_t rotation_witnesses = 0;  ///< leaves discharged by rotation
  /// Regions of the deterministic partition (0 in dense mode). A pure
  /// function of the circuit, so it is part of the logical result and
  /// cached in snapshots.
  std::size_t regions = 0;
  /// Resident heap bytes of the one-cycle + closure matrices (dense plane
  /// bytes in dense mode). Representation-dependent by design: this is
  /// the footprint the tiled mode exists to shrink.
  std::uint64_t matrix_bytes = 0;
  std::uint64_t tiles_nonzero = 0;  ///< denoted 64x64 tiles (0 when dense)
  std::uint64_t tiles_spilled = 0;  ///< cumulative spill evictions this run
  /// Per-phase wall-clock seconds. t_one_cycle covers extracting every
  /// next-state and capture cone, deciding which flip-flops are internal,
  /// and classifying the cones (simulation prefilter, ternary, SAT);
  /// t_bridge the internal-FF bridging; t_closure the multi-cycle closure.
  double t_one_cycle = 0.0;
  double t_bridge = 0.0;
  double t_closure = 0.0;
};

/// A 1-cycle dependency of a scan flip-flop on a circuit flip-flop,
/// established by the scan FF's capture cone.
struct CaptureDep {
  netlist::NodeId circuit_ff;
  DepKind kind;
};

/// Data-flow dependency analysis over the circuit logic (Sec. III-A).
///
/// Computes, for the circuit underlying an RSN:
///  - the 1-cycle dependency of every circuit flip-flop on every other
///    (functional vs. only-structural, SAT-exact in DepMode::Exact);
///  - the 1-cycle dependencies of each scan flip-flop on circuit flip-flops
///    through its capture cone;
///  - the bridged relation with all internal flip-flops (those not directly
///    connected to the RSN, i.e. neither a capture-cone leaf nor an update
///    target) composed out;
///  - the multi-cycle closure of the circuit relation.
///
/// Deliberately computed *without* RSN-internal connections: the security
/// resolution rewires the RSN repeatedly, and this relation stays valid
/// across all rewirings (see the end of Sec. III-A).
class DependencyAnalyzer {
 public:
  DependencyAnalyzer(const netlist::Netlist& nl, const rsn::Rsn& network,
                     DepOptions options = {});

  /// Runs the full analysis pipeline.
  void run();

  /// True if this analysis uses the tiled matrices (explicit
  /// PartitionMode::Tiled, or Auto at >= kAutoPartitionFfs circuit FFs).
  /// Decided at construction — it depends only on options and circuit.
  bool tiled() const { return tiled_; }

  /// Multi-cycle circuit-internal dependency closure (after bridging).
  /// Entry (i, j): dependency of circuit FF j on circuit FF i, indices via
  /// circuit_index(). Dense representation only — throws std::logic_error
  /// in tiled mode; representation-agnostic callers use closure_at() /
  /// for_each_closure_path_successor().
  const DepMatrix& circuit_closure() const {
    if (tiled_) throw std::logic_error("dense closure unavailable: tiled");
    return closure_;
  }

  /// 1-cycle circuit relation before bridging (kept for tests/ablation).
  /// Dense representation only, like circuit_closure().
  const DepMatrix& one_cycle() const {
    if (tiled_) throw std::logic_error("dense one-cycle unavailable: tiled");
    return one_cycle_;
  }

  /// Tiled counterparts (valid only in tiled mode).
  const TiledDepMatrix& circuit_closure_tiled() const {
    if (!tiled_) throw std::logic_error("tiled closure unavailable: dense");
    return closure_tiled_;
  }
  const TiledDepMatrix& one_cycle_tiled() const {
    if (!tiled_) throw std::logic_error("tiled one-cycle unavailable: dense");
    return one_cycle_tiled_;
  }

  /// Closure entry (i, j) by dense index, representation-agnostic.
  DepKind closure_at(std::size_t i, std::size_t j) const {
    return tiled_ ? closure_tiled_.get(i, j) : closure_.get(i, j);
  }

  /// Calls fn(j) for the dense indices j with a Path closure dependency
  /// of FF j on FF i, ascending: one allocation-free word scan of row i's
  /// P plane, dense or tiled (the hybrid security engine's access path,
  /// so it never materializes a dense matrix at scale).
  template <typename Fn>
  void for_each_closure_path_successor(std::size_t i, Fn&& fn) const {
    if (tiled_)
      closure_tiled_.for_each_path_successor(i, fn);
    else
      closure_.for_each_path_successor(i, fn);
  }

  /// Dense index of a circuit flip-flop node.
  std::size_t circuit_index(netlist::NodeId ff) const {
    return ff_index_[static_cast<std::size_t>(ff)];
  }

  /// Circuit flip-flop node at dense index i.
  netlist::NodeId circuit_ff(std::size_t i) const { return ff_nodes_[i]; }

  /// Number of circuit flip-flops in the relation.
  std::size_t num_circuit_ffs() const { return ff_nodes_.size(); }

  /// True if the circuit FF at dense index i is internal (bridged out).
  bool is_internal(std::size_t i) const { return internal_[i]; }

  /// Capture dependencies of scan FF `ff` of register `reg`.
  const std::vector<CaptureDep>& capture_deps(rsn::ElemId reg,
                                              std::size_t ff) const;

  const DepStats& stats() const { return stats_; }
  const DepOptions& options() const { return options_; }

  /// The analysis inputs. Exposed so the artifact store can derive the
  /// content-addressed cache key from an analyzer without re-threading
  /// circuit and network through every call site.
  const netlist::Netlist& circuit() const { return nl_; }
  const rsn::Rsn& network() const { return rsn_; }

  /// Complete result state of a finished run(), in a form that can be
  /// serialized and replayed into a fresh analyzer of the same inputs
  /// (src/store caches these across processes). The dense FF index is
  /// not part of the snapshot — it is a cheap pure function of the
  /// circuit and recomputed on restore.
  struct AnalysisSnapshot {
    std::vector<bool> internal;
    /// Exactly one representation is populated, selected by `tiled` (the
    /// snapshot preserves the producing run's representation; restore()
    /// rejects a representation mismatch rather than converting, since
    /// the mismatch means the cache key discipline broke).
    bool tiled = false;
    DepMatrix one_cycle;
    DepMatrix closure;
    TiledDepMatrix one_cycle_tiled;
    TiledDepMatrix closure_tiled;
    std::vector<std::vector<std::vector<CaptureDep>>> capture_deps;
    DepStats stats;
  };

  /// Captures the result state. Valid only after run() (or a successful
  /// restore()).
  AnalysisSnapshot snapshot() const;

  /// Replays a snapshot into this analyzer as if run() had produced it.
  /// Validates every shape against the analyzer's own circuit and RSN
  /// (matrix dimensions, register/scan-FF layout, capture-dependency
  /// node ids); on mismatch returns false, fills `error`, and leaves the
  /// analyzer unusable for queries (callers fall back to run()). The
  /// wall-clock fields of the restored stats are zeroed — "served from
  /// the store" does no analysis work.
  bool restore(AnalysisSnapshot snap, std::string* error = nullptr);

 private:
  const netlist::Netlist& nl_;
  const rsn::Rsn& rsn_;
  DepOptions options_;

  std::vector<netlist::NodeId> ff_nodes_;
  std::vector<std::size_t> ff_index_;  // NodeId -> dense index
  std::vector<bool> internal_;
  /// Representation flag + both matrix pairs; only the pair selected by
  /// tiled_ is ever populated (the other stays at dimension 0).
  bool tiled_ = false;
  DepMatrix one_cycle_;
  DepMatrix closure_;
  TiledDepMatrix one_cycle_tiled_;
  TiledDepMatrix closure_tiled_;
  /// Deterministic region partition (tiled mode): region r covers dense
  /// indices [region_first_block_[r] * 64, region_first_block_[r+1] * 64);
  /// the last entry is the sentinel num_blocks. 64-aligned so a region's
  /// intra-region dependencies live entirely in diagonal-block tiles.
  std::vector<std::size_t> region_first_block_;
  // capture_deps_[register slot][ff index]
  std::vector<std::vector<std::vector<CaptureDep>>> capture_deps_;
  std::vector<std::size_t> reg_slot_;
  DepStats stats_;

  /// Dependency of the cone root on cone.leaves[leaf_idx], positionally:
  /// isomorphic cones (equal signatures) share these verdicts, each cone
  /// translating leaf_idx back to its own leaf node.
  struct LeafDep {
    std::size_t leaf_idx;
    DepKind kind;
  };

  void build_index();
  /// Splits the dense index range into contiguous, 64-aligned regions
  /// along module boundaries (tiled mode). Pure function of the circuit,
  /// so partitioned results are reproducible.
  void partition_regions();
  /// Recomputes the representation-dependent footprint stats (regions,
  /// matrix_bytes, tiles_nonzero, tiles_spilled) from the live matrices.
  void refresh_matrix_stats();
  /// Marks every circuit flip-flop internal that is neither an update
  /// target nor a leaf of one of the scan FFs' `capture_cones`.
  void classify_internal(std::span<const netlist::Cone> capture_cones);
  /// Scratch of the one-cycle phase (defined in analyzer.cpp).
  struct ConeSlot;
  /// Classifies the dependencies of the cone root on the cone's flip-flop
  /// leaves (functional vs. only-structural): simulation, the ternary
  /// proof, then an exact check of the rest (exhaustive simulation on a
  /// small cone, SAT on a wider one). Draws patterns from the
  /// caller-provided RNG stream, works in `slot`, and accumulates the
  /// sim/SAT counters into `stats` (one instance per isomorphism group).
  std::vector<LeafDep> cone_deps(const netlist::Cone& cone, Rng& rng,
                                 DepStats& stats, ConeSlot& slot) const;
  void compute_one_cycle();
  void bridge_internal();
  void compute_closure();
};

}  // namespace rsnsec::dep
