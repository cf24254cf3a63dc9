#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rsnsec {

class ThreadPool;

/// Kind of data-flow dependency between two flip-flops (Sec. III-A of the
/// paper, notation of [18]).
///
/// The lattice is ordered None < Structural < Path:
///  - `None`: no connection at all.
///  - `Structural`: a wire/gate path exists but data provably cannot
///    propagate along every such path chain ("only structural").
///  - `Path`: data can propagate ("path-dependent"; 1-cycle functional
///    dependencies are path dependencies over a path of length 1).
enum class DepKind : std::uint8_t { None = 0, Structural = 1, Path = 2 };

/// Returns the stronger of two dependency kinds.
constexpr DepKind max_dep(DepKind a, DepKind b) { return a > b ? a : b; }

/// Composition of two chained dependencies: a chain is path-dependent only
/// if every hop is path-dependent; a chain with any only-structural hop is
/// only structural; a chain through a missing hop does not exist.
constexpr DepKind compose_dep(DepKind a, DepKind b) {
  if (a == DepKind::None || b == DepKind::None) return DepKind::None;
  if (a == DepKind::Path && b == DepKind::Path) return DepKind::Path;
  return DepKind::Structural;
}

/// Dense n-by-n matrix of DepKind values stored as two bit planes.
///
/// Plane S holds "structural or stronger", plane P holds "path"; the class
/// maintains the invariant P implies S. Entry (i, j) means "j depends on i
/// with kind get(i, j)" — i.e. data flows from row index i to column
/// index j. Bit-parallel row operations make the iterative multi-cycle
/// closure (cubic in the number of flip-flops, Sec. III-A) fast in practice.
class DepMatrix {
 public:
  DepMatrix() = default;

  /// Creates an n-by-n all-None matrix.
  explicit DepMatrix(std::size_t n);

  /// Number of tracked flip-flops (matrix dimension).
  std::size_t size() const { return n_; }

  /// Returns the dependency of column j on row i.
  DepKind get(std::size_t i, std::size_t j) const;

  /// Monotonically upgrades entry (i, j) to at least `k`; never downgrades.
  void upgrade(std::size_t i, std::size_t j, DepKind k);

  /// Forces entry (i, j) to exactly `k` (used by bridging when removing a
  /// flip-flop's own row/column).
  void set(std::size_t i, std::size_t j, DepKind k);

  /// Clears row i and column i to None (a bridged-out flip-flop keeps its
  /// index but no longer participates in the relation).
  void clear_node(std::size_t i);

  /// Number of non-None entries.
  std::size_t count_nonzero() const;

  /// Number of Path entries.
  std::size_t count_path() const;

  /// In-place transitive closure under compose_dep/max_dep. This is the
  /// multi-cycle dependency computation of Sec. III-A: path-dependence is
  /// the closure of functional edges; structural dependence is the closure
  /// of all edges. `active` (optional) restricts the intermediate ("via")
  /// nodes to those marked true — used to exclude bridged-out internal
  /// flip-flops from the cubic computation. `pool` (optional) processes
  /// the row block of each elimination step in parallel: within one step
  /// every row only reads the (stable) via row and ORs into itself, so
  /// the result is bit-identical for any thread count.
  void transitive_closure(const std::vector<bool>* active = nullptr,
                          ThreadPool* pool = nullptr);

  /// Bridges node `v` out of the relation (Fig. 3 of the paper): every
  /// incoming dependency (v on p) is composed with every outgoing one
  /// (s on v) into (s on p) under compose_dep, then row/column v are
  /// cleared. Equivalent to the naive
  ///   for p in predecessors(v): for s in successors(v):
  ///     upgrade(p, s, compose_dep(get(p, v), get(v, s)))
  ///   clear_node(v)
  /// but word-parallel over v's row bit-planes and allocation-free — the
  /// naive loop allocated two index vectors per eliminated flip-flop,
  /// which dominated the bridging phase on large circuits.
  void eliminate(std::size_t v);

  /// Returns the column indices j with get(i, j) != None.
  std::vector<std::size_t> successors(std::size_t i) const;

  /// Returns the row indices h with get(h, i) != None.
  std::vector<std::size_t> predecessors(std::size_t i) const;

  /// True if the two matrices have identical contents.
  friend bool operator==(const DepMatrix& a, const DepMatrix& b) {
    return a.n_ == b.n_ && a.s_ == b.s_ && a.p_ == b.p_;
  }

  /// 64-bit words per bit-plane row: (size() + 63) / 64.
  std::size_t words_per_row() const { return words_per_row_; }

  /// Bytes held by the two bit planes (the dense footprint that the
  /// tiled representation is measured against). Content-derived (sizes,
  /// not capacities) so a matrix restored from the artifact store reports
  /// the same figure as the run that computed it.
  std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(s_.size() + p_.size()) *
           sizeof(std::uint64_t);
  }

  /// Raw bit planes (row-major, words_per_row() words per row). S holds
  /// "structural or stronger", P holds "path". Exposed for serialization.
  const std::vector<std::uint64_t>& plane_s() const { return s_; }
  const std::vector<std::uint64_t>& plane_p() const { return p_; }

  /// Rebuilds a matrix from raw planes (the inverse of plane_s/plane_p),
  /// validating shape and invariants: both planes sized n*((n+63)/64),
  /// no bit set beyond column n-1, and P implies S. Returns false (and
  /// leaves `out` untouched) if the planes are inconsistent — required so
  /// that a corrupted serialized matrix cannot poison count_nonzero() or
  /// the closure kernels with stray tail bits.
  static bool from_planes(std::size_t n, std::vector<std::uint64_t> s,
                          std::vector<std::uint64_t> p, DepMatrix* out);

 private:
  std::size_t n_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> s_;  // structural-or-path plane
  std::vector<std::uint64_t> p_;  // path plane

  std::size_t word(std::size_t i, std::size_t j) const {
    return i * words_per_row_ + (j >> 6);
  }
  static std::uint64_t bit(std::size_t j) { return 1ULL << (j & 63); }

  void closure_plane(std::vector<std::uint64_t>& plane,
                     const std::vector<bool>* active, ThreadPool* pool);
};

}  // namespace rsnsec
