#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/dep_matrix.hpp"

namespace rsnsec {

/// Out-of-core backing for TiledDepMatrix tiles. Content-addressed: the
/// backend derives a handle from the tile bytes (store() of equal bytes
/// may return equal handles, deduplicating identical tiles), and a handle
/// once returned must stay fetchable for the lifetime of the backend —
/// handles are immutable, so evicting a clean tile needs no second
/// store(). The production implementation wraps the ArtifactStore
/// (store/tile_spill.hpp); tests use InMemorySpillBackend.
class TileSpillBackend {
 public:
  virtual ~TileSpillBackend() = default;

  /// Persists `bytes` and returns its handle.
  virtual std::string store(std::string_view bytes) = 0;

  /// Fetches the bytes of `handle` into `out`; false if unknown/corrupt.
  virtual bool fetch(const std::string& handle, std::string* out) = 0;
};

/// Trivial in-process TileSpillBackend: a content-keyed map. Gives tests
/// the full spill/fault-in code path without a disk store.
class InMemorySpillBackend : public TileSpillBackend {
 public:
  std::string store(std::string_view bytes) override;
  bool fetch(const std::string& handle, std::string* out) override;

  std::size_t stored_objects() const { return objects_.size(); }

 private:
  std::vector<std::pair<std::string, std::string>> objects_;  // handle, bytes
};

/// Sparse n-by-n DepKind matrix stored as 64x64-bit tiles.
///
/// Semantically identical to DepMatrix (two bit planes S and P, P implies
/// S, entry (i, j) = dependency of column j on row i), but all-zero tiles
/// are not materialized, so memory scales with the number of denoted
/// 64x64 blocks instead of n^2 — the difference between ~2.5 GB and a few
/// hundred MB for a 100k-FF design whose dependency structure is module-
/// local. Tiles of one row block are kept sorted by column block.
///
/// Every kernel (transitive_closure, eliminate) computes bit for bit what
/// the corresponding DepMatrix kernel computes: the closure is the unique
/// fixpoint of the relation and elimination is order-independent, so the
/// tiled results are interchangeable with the dense oracle (pinned by
/// tests/util/tiled_matrix_test.cpp and the dep-level oracle sweeps).
///
/// Out-of-core spill: with set_spill(backend, budget) attached, tiles
/// beyond the resident-byte budget are evicted least-recently-stamped to
/// the backend (serialized once — handles are content-addressed and
/// immutable — then freed) and faulted back in on access. Eviction runs
/// only at checkpoints between tile operations, never while a kernel
/// holds raw tile pointers; the budget is therefore advisory — a kernel's
/// working set may exceed it transiently.
///
/// Every stored tile is non-zero: each mutator prunes the tiles it
/// empties, so tiles_nonzero() counts denoted 64x64 blocks exactly.
///
/// Threading: every kernel runs on the calling thread. Without a backend,
/// callers may mutate disjoint row blocks concurrently; with one, fault-in
/// and eviction mutate matrix-wide state, so all access must be serial.
class TiledDepMatrix {
 public:
  /// One 64x64-bit tile: 64 row words per plane, bit c of s[r] =
  /// "structural or stronger" for local entry (r, c). 1 KiB per tile.
  struct Tile {
    std::uint64_t s[64];
    std::uint64_t p[64];
  };

  TiledDepMatrix() = default;
  explicit TiledDepMatrix(std::size_t n);

  TiledDepMatrix(const TiledDepMatrix& o);
  TiledDepMatrix& operator=(const TiledDepMatrix& o);
  TiledDepMatrix(TiledDepMatrix&&) noexcept = default;
  TiledDepMatrix& operator=(TiledDepMatrix&&) noexcept = default;

  /// Attaches an eviction backend; `budget_bytes` caps resident tile
  /// bytes (advisory, see class comment). The backend is not owned and
  /// must outlive the matrix. nullptr detaches (faulting everything in).
  void set_spill(TileSpillBackend* backend, std::uint64_t budget_bytes);

  std::size_t size() const { return n_; }
  std::size_t num_blocks() const { return nb_; }

  DepKind get(std::size_t i, std::size_t j) const;
  void upgrade(std::size_t i, std::size_t j, DepKind k);
  void set(std::size_t i, std::size_t j, DepKind k);
  void clear_node(std::size_t i);

  std::size_t count_nonzero() const;
  std::size_t count_path() const;

  /// Marks endpoints[i] = true for every i that is the source or target
  /// of at least one non-None entry. `endpoints` must be sized n.
  void mark_endpoints(std::vector<bool>& endpoints) const;

  /// Resident (non-spilled) tiles currently materialized.
  std::size_t tiles_resident() const;
  /// Non-zero tiles, resident or spilled (spilled tiles are never zero —
  /// zero tiles are pruned, not stored).
  std::size_t tiles_nonzero() const;
  /// Cumulative tiles evicted to the spill backend over the lifetime.
  std::uint64_t tiles_spilled() const { return tiles_spilled_; }
  /// Resident bytes of tile payloads plus slot bookkeeping. Content-
  /// derived (sizes, not capacities), so computed and store-restored
  /// matrices with the same tiles report the same figure.
  std::uint64_t memory_bytes() const;

  /// Tiled transitive closure under compose_dep/max_dep; bit-identical to
  /// DepMatrix::transitive_closure for the same relation and `active`
  /// mask. Blocked Floyd-Warshall: per 64-wide via block, the diagonal
  /// tile is closed locally, then the row panel, column panel and
  /// interior updates absorb it — each skipping absent tiles, which is
  /// where the block-sparse win over the dense kernel comes from.
  void transitive_closure(const std::vector<bool>* active = nullptr);

  /// Tiled bridging of node v; bit-identical to DepMatrix::eliminate.
  void eliminate(std::size_t v);

  /// Column indices j with get(i, j) != None, ascending.
  std::vector<std::size_t> successors(std::size_t i) const;

  /// Calls fn(j) for every column j with get(i, j) == Path, ascending:
  /// one word scan of row i's P-plane words in its row block's tiles,
  /// allocation-free (a spilled tile is faulted in).
  template <typename Fn>
  void for_each_path_successor(std::size_t i, Fn&& fn) const {
    assert(i < n_);
    const std::size_t rb = i >> 6;
    const std::size_t r = i & 63;
    for (const Slot& s : rows_[rb].slots) {
      const std::size_t base = std::size_t{s.cb} * 64;
      for (std::uint64_t bits = acquire(rb, s.cb, false)->p[r]; bits != 0;
           bits &= bits - 1)
        fn(base + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }

  /// Calls fn(i, j, kind) for every non-None entry, ascending (i, j).
  void for_each_entry(
      const std::function<void(std::size_t, std::size_t, DepKind)>& fn) const;

  /// Dense interchange (tests, small-scale oracles, serialization of the
  /// capture side). to_dense materializes all spilled tiles' contents.
  DepMatrix to_dense() const;
  static TiledDepMatrix from_dense(const DepMatrix& m);

  /// Serialization interface: visits tiles in (row block, column block)
  /// order, faulting spilled tiles in.
  void for_each_tile(const std::function<void(std::size_t rb, std::size_t cb,
                                              const Tile&)>& fn) const;

  /// Inserts a tile during deserialization, validating range, strictly
  /// ascending (rb, cb) insertion order per row block, non-zero payload,
  /// clear tail bits on edge blocks and P-implies-S. Returns false on any
  /// violation (the codec treats that as a corrupt blob).
  bool insert_tile(std::size_t rb, std::size_t cb, const Tile& t);

  /// Resident view of tile (rb, cb), faulting a spilled tile in; nullptr
  /// if the tile is absent (all-zero). The pointer is invalidated by any
  /// mutation of the matrix. Used by the region-partitioned bridging to
  /// lift a region's diagonal block into a dense local matrix.
  const Tile* tile_at(std::size_t rb, std::size_t cb) const;

  /// Replaces tile (rb, cb) with `t` wholesale (erasing it if `t` is all
  /// zero). Unlike insert_tile this is an unordered overwrite for trusted
  /// in-process callers — the write-back half of tile_at.
  void assign_tile(std::size_t rb, std::size_t cb, const Tile& t);

  /// Content equality (same dimension, same DepKind at every entry).
  friend bool operator==(const TiledDepMatrix& a, const TiledDepMatrix& b);

 private:
  struct Slot {
    std::uint32_t cb = 0;
    // mutable: const accessors fault spilled tiles back in.
    mutable std::unique_ptr<Tile> tile;
    mutable std::string handle;  ///< spill handle once evicted (sticky)
    mutable std::uint64_t stamp = 0;  ///< LRU clock for eviction
    mutable bool dirty = true;  ///< resident tile differs from handle
  };
  struct RowBlock {
    std::vector<Slot> slots;  // sorted by cb
  };

  std::size_t n_ = 0;
  std::size_t nb_ = 0;  // number of 64-wide blocks: (n + 63) / 64
  std::vector<RowBlock> rows_;
  TileSpillBackend* backend_ = nullptr;
  std::uint64_t budget_bytes_ = 0;
  mutable std::uint64_t clock_ = 0;
  mutable std::uint64_t tiles_spilled_ = 0;
  /// Resident tile count, maintained only while a backend is attached
  /// (access is serial then); unused without a backend.
  mutable std::size_t resident_ = 0;

  /// Tail mask of the last block: bits for columns/rows >= n are invalid.
  std::uint64_t edge_mask(std::size_t block) const;

  const Slot* find_slot(std::size_t rb, std::size_t cb) const;
  /// Resident tile of (rb, cb), faulting in; nullptr if absent (and
  /// `create` is false). With `create`, an all-zero tile is materialized.
  Tile* acquire(std::size_t rb, std::size_t cb, bool create) const;
  void fault_in(const Slot& s) const;
  void prune_if_zero(std::size_t rb, std::size_t cb);
  /// Evicts least-recently-stamped tiles down to the budget. Only called
  /// at safe points (no raw tile pointers held by the caller).
  void checkpoint() const;

  void closure_plane(bool path_plane, const std::vector<std::uint64_t>& amask);
};

}  // namespace rsnsec
