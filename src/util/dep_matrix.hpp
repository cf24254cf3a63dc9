#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rsnsec {

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
  /// flip-flops from the cubic computation. Only the rows nonzero when
  /// it starts take part, as rows and as vias: an empty row reaches no
  /// via, so it stays empty. Runs on the calling thread: the pivot steps
  /// are sequential, and a fork and join per step would cost more than
  /// the step.
  void transitive_closure(const std::vector<bool>* active = nullptr);

  /// Bridges node `v` out of the relation (Fig. 3 of the paper): every
  /// incoming dependency (v on p) is composed with every outgoing one
  /// (s on v) into (s on p) under compose_dep, then row/column v are
  /// cleared. Equivalent to the naive
  ///   for p in predecessors(v): for s in successors(v):
  ///     upgrade(p, s, compose_dep(get(p, v), get(v, s)))
  ///   clear_node(v)
  /// but word-parallel over v's row bit-planes and allocation-free. The
  /// dependency engine bridges whole sets with eliminate_all(); this
  /// per-node form is the reference the tests hold eliminate_all() and
  /// TiledDepMatrix::eliminate to.
  void eliminate(std::size_t v);

  /// Bridges out every node v with marked[v] (marked.size() == size()):
  /// the same relation as eliminate(v) for each marked v in ascending
  /// order (the reference the tests hold it to), at one column pass for
  /// the whole set instead of one per node. Each marked row is composed
  /// into its predecessors and zeroed at once, and the marked columns
  /// are cleared together at the end. Exact because a bit in an
  /// eliminated column only ever flows into that same column: a pivot's
  /// predecessors are read from its own column, and the pivot is not
  /// eliminated yet. Only the rows nonzero at the start are visited, as
  /// pivots, predecessors and in the masked pass: a row gains bits only
  /// as a predecessor, which takes a bit in it.
  void eliminate_all(const std::vector<bool>& marked);

  /// Sets endpoints[i] for every i that has a dependency in either
  /// direction (a non-None entry in row i or column i); endpoints.size()
  /// == size(). Other entries are left as they are.
  void mark_endpoints(std::vector<bool>& endpoints) const;

  /// Returns the column indices j with get(i, j) != None.
  std::vector<std::size_t> successors(std::size_t i) const;

  /// Returns the row indices h with get(h, i) != None.
  std::vector<std::size_t> predecessors(std::size_t i) const;

  /// Calls fn(j) for every column j with get(i, j) == Path, ascending:
  /// one word scan of row i's P plane, allocation-free.
  template <typename Fn>
  void for_each_path_successor(std::size_t i, Fn&& fn) const {
    assert(i < n_);
    const std::uint64_t* row = p_.data() + i * words_per_row_;
    for (std::size_t w = 0; w < words_per_row_; ++w)
      for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1)
        fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
  }

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

  /// Indices of the rows of `plane` with a bit set, ascending.
  std::vector<std::size_t> nonzero_rows(
      const std::vector<std::uint64_t>& plane) const;
  void closure_plane(std::vector<std::uint64_t>& plane,
                     const std::vector<bool>* active);
  /// Composes row v into the row of each predecessor among `rows` (a
  /// range of row indices; eliminate's first half).
  template <typename Rows>
  void bridge_row(std::size_t v, const Rows& rows);
};

}  // namespace rsnsec
