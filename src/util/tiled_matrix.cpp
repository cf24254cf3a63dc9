#include "util/tiled_matrix.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/word256.hpp"

namespace rsnsec {

namespace {

/// Blocked kernels dispatch one task per 64-row block; below this many
/// blocks the dispatch overhead dominates any win.
constexpr std::size_t kMinParallelBlocks = 4;

constexpr std::size_t kTileBytes = sizeof(TiledDepMatrix::Tile);
constexpr std::size_t kTileWords = 128;  // 64 S rows + 64 P rows

/// OR `words` 64-bit words of src into dst, four lanes at a time. memcpy
/// in and out of Word256 keeps it strict-aliasing clean; the copies
/// compile away and the lane loop auto-vectorizes.
void or_words(std::uint64_t* dst, const std::uint64_t* src,
              std::size_t words) {
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    Word256 a;
    Word256 b;
    std::memcpy(&a, dst + i, sizeof a);
    std::memcpy(&b, src + i, sizeof b);
    a |= b;
    std::memcpy(dst + i, &a, sizeof a);
  }
  for (; i < words; ++i) dst[i] |= src[i];
}

bool any_words(const std::uint64_t* w, std::size_t words) {
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    Word256 a;
    std::memcpy(&a, w + i, sizeof a);
    if (a.any()) return true;
  }
  for (; i < words; ++i) {
    if (w[i] != 0) return true;
  }
  return false;
}

bool tile_is_zero(const TiledDepMatrix::Tile& t) {
  return !any_words(t.s, 64) && !any_words(t.p, 64);
}

std::size_t tile_popcount(const std::uint64_t* rows) {
  std::size_t c = 0;
  for (std::size_t r = 0; r < 64; ++r) {
    c += static_cast<std::size_t>(std::popcount(rows[r]));
  }
  return c;
}

/// Portable little-endian tile serialization: 64 S words then 64 P words.
std::string serialize_tile(const TiledDepMatrix::Tile& t) {
  std::string out(kTileWords * 8, '\0');
  const std::uint64_t* words = t.s;  // s and p are contiguous in the POD
  for (std::size_t w = 0; w < kTileWords; ++w) {
    const std::uint64_t v = words[w];
    for (std::size_t b = 0; b < 8; ++b) {
      out[w * 8 + b] = static_cast<char>((v >> (8 * b)) & 0xff);
    }
  }
  return out;
}

bool deserialize_tile(const std::string& bytes, TiledDepMatrix::Tile* t) {
  if (bytes.size() != kTileWords * 8) return false;
  std::uint64_t* words = t->s;
  for (std::size_t w = 0; w < kTileWords; ++w) {
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes[w * 8 + b]))
           << (8 * b);
    }
    words[w] = v;
  }
  return true;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 0; i < 16; ++i) {
    out[15 - i] = kDigits[(v >> (4 * i)) & 0xf];
  }
  return out;
}

bool use_pool(const ThreadPool* pool, std::size_t blocks) {
  return pool != nullptr && pool->num_threads() > 1 &&
         blocks >= kMinParallelBlocks;
}

}  // namespace

static_assert(offsetof(TiledDepMatrix::Tile, p) == 64 * sizeof(std::uint64_t),
              "tile planes must be contiguous for serialization");

// ---------------------------------------------------------------------------
// InMemorySpillBackend

std::string InMemorySpillBackend::store(std::string_view bytes) {
  std::string handle = hex64(fnv1a64(bytes));
  for (;;) {
    auto it = std::find_if(
        objects_.begin(), objects_.end(),
        [&](const auto& o) { return o.first == handle; });
    if (it == objects_.end()) {
      objects_.emplace_back(handle, std::string(bytes));
      return handle;
    }
    if (it->second == bytes) return handle;  // content-addressed dedup
    handle += '+';  // hash collision: probe to the next free handle
  }
}

bool InMemorySpillBackend::fetch(const std::string& handle,
                                 std::string* out) {
  for (const auto& o : objects_) {
    if (o.first == handle) {
      *out = o.second;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// TiledDepMatrix: construction, spill plumbing, element access

TiledDepMatrix::TiledDepMatrix(std::size_t n)
    : n_(n), nb_((n + 63) / 64), rows_(nb_) {}

TiledDepMatrix::TiledDepMatrix(const TiledDepMatrix& o)
    : n_(o.n_), nb_(o.nb_), rows_(o.nb_) {
  // The copy is fully resident and detached from any spill backend:
  // snapshots must stay readable even if the source keeps evicting.
  for (std::size_t rb = 0; rb < nb_; ++rb) {
    rows_[rb].slots.reserve(o.rows_[rb].slots.size());
    for (const Slot& s : o.rows_[rb].slots) {
      Tile* src = o.acquire(rb, s.cb, /*create=*/false);
      assert(src != nullptr);
      Slot copy;
      copy.cb = s.cb;
      copy.tile = std::make_unique<Tile>(*src);
      rows_[rb].slots.push_back(std::move(copy));
    }
  }
}

TiledDepMatrix& TiledDepMatrix::operator=(const TiledDepMatrix& o) {
  if (this != &o) {
    TiledDepMatrix tmp(o);
    *this = std::move(tmp);
  }
  return *this;
}

void TiledDepMatrix::set_spill(TileSpillBackend* backend,
                               std::uint64_t budget_bytes) {
  if (backend == nullptr && backend_ != nullptr) {
    // Detach: everything must be resident before the backend goes away.
    for (std::size_t rb = 0; rb < nb_; ++rb) {
      for (Slot& s : rows_[rb].slots) {
        if (!s.tile) fault_in(s);
        s.handle.clear();
        s.dirty = true;
      }
    }
  }
  backend_ = backend;
  budget_bytes_ = budget_bytes;
  resident_ = 0;
  if (backend_ != nullptr) {
    for (const RowBlock& row : rows_) {
      for (const Slot& s : row.slots) {
        if (s.tile) ++resident_;
      }
    }
    checkpoint();
  }
}

std::uint64_t TiledDepMatrix::edge_mask(std::size_t block) const {
  if (block + 1 == nb_ && n_ % 64 != 0) return (1ULL << (n_ % 64)) - 1;
  return ~0ULL;
}

const TiledDepMatrix::Slot* TiledDepMatrix::find_slot(std::size_t rb,
                                                      std::size_t cb) const {
  const auto& slots = rows_[rb].slots;
  auto it = std::lower_bound(
      slots.begin(), slots.end(), cb,
      [](const Slot& s, std::size_t c) { return s.cb < c; });
  if (it == slots.end() || it->cb != cb) return nullptr;
  return &*it;
}

void TiledDepMatrix::fault_in(const Slot& s) const {
  assert(backend_ != nullptr && !s.tile && !s.handle.empty());
  std::string bytes;
  if (!backend_->fetch(s.handle, &bytes)) {
    throw std::runtime_error("tiled matrix: spilled tile lost by backend");
  }
  auto tile = std::make_unique<Tile>();
  if (!deserialize_tile(bytes, tile.get())) {
    throw std::runtime_error("tiled matrix: corrupt spilled tile");
  }
  s.tile = std::move(tile);
  s.dirty = false;
  ++resident_;
}

TiledDepMatrix::Tile* TiledDepMatrix::acquire(std::size_t rb, std::size_t cb,
                                              bool create) const {
  auto& slots = const_cast<RowBlock&>(rows_[rb]).slots;
  auto it = std::lower_bound(
      slots.begin(), slots.end(), cb,
      [](const Slot& s, std::size_t c) { return s.cb < c; });
  if (it != slots.end() && it->cb == cb) {
    if (!it->tile) fault_in(*it);
    if (backend_ != nullptr) {
      it->stamp = ++clock_;
      it->dirty = true;
    }
    return it->tile.get();
  }
  if (!create) return nullptr;
  Slot s;
  s.cb = static_cast<std::uint32_t>(cb);
  s.tile = std::make_unique<Tile>();
  std::memset(s.tile.get(), 0, kTileBytes);
  if (backend_ != nullptr) {
    s.stamp = ++clock_;
    ++resident_;
  }
  return slots.insert(it, std::move(s))->tile.get();
}

void TiledDepMatrix::prune_if_zero(std::size_t rb, std::size_t cb) {
  auto& slots = rows_[rb].slots;
  auto it = std::lower_bound(
      slots.begin(), slots.end(), cb,
      [](const Slot& s, std::size_t c) { return s.cb < c; });
  if (it == slots.end() || it->cb != cb) return;
  if (!it->tile || !tile_is_zero(*it->tile)) return;
  if (backend_ != nullptr) --resident_;
  slots.erase(it);
}

void TiledDepMatrix::checkpoint() const {
  if (backend_ == nullptr) return;
  if (resident_ * kTileBytes <= budget_bytes_) return;
  // Least-recently-stamped first. The scan is linear in the slot count;
  // checkpoints only run between tile operations, never per bit.
  std::vector<std::pair<std::uint64_t, Slot*>> resident;
  resident.reserve(resident_);
  for (const RowBlock& row : rows_) {
    for (const Slot& s : row.slots) {
      if (s.tile) resident.emplace_back(s.stamp, const_cast<Slot*>(&s));
    }
  }
  std::sort(resident.begin(), resident.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [stamp, slot] : resident) {
    if (resident_ * kTileBytes <= budget_bytes_) break;
    (void)stamp;
    if (slot->dirty || slot->handle.empty()) {
      slot->handle = backend_->store(serialize_tile(*slot->tile));
      slot->dirty = false;
    }
    slot->tile.reset();
    --resident_;
    ++tiles_spilled_;
  }
}

DepKind TiledDepMatrix::get(std::size_t i, std::size_t j) const {
  assert(i < n_ && j < n_);
  const Tile* t = acquire(i >> 6, j >> 6, /*create=*/false);
  if (t == nullptr) return DepKind::None;
  const std::uint64_t b = 1ULL << (j & 63);
  if (t->p[i & 63] & b) return DepKind::Path;
  if (t->s[i & 63] & b) return DepKind::Structural;
  return DepKind::None;
}

void TiledDepMatrix::upgrade(std::size_t i, std::size_t j, DepKind k) {
  assert(i < n_ && j < n_);
  if (k == DepKind::None) return;
  Tile* t = acquire(i >> 6, j >> 6, /*create=*/true);
  const std::uint64_t b = 1ULL << (j & 63);
  t->s[i & 63] |= b;
  if (k == DepKind::Path) t->p[i & 63] |= b;
  checkpoint();
}

void TiledDepMatrix::set(std::size_t i, std::size_t j, DepKind k) {
  assert(i < n_ && j < n_);
  Tile* t = acquire(i >> 6, j >> 6, /*create=*/k != DepKind::None);
  if (t == nullptr) return;
  const std::uint64_t b = 1ULL << (j & 63);
  t->s[i & 63] &= ~b;
  t->p[i & 63] &= ~b;
  if (k != DepKind::None) t->s[i & 63] |= b;
  if (k == DepKind::Path) t->p[i & 63] |= b;
  prune_if_zero(i >> 6, j >> 6);
  checkpoint();
}

void TiledDepMatrix::clear_node(std::size_t i) {
  assert(i < n_);
  const std::size_t ib = i >> 6;
  const std::size_t ir = i & 63;
  const std::uint64_t ibit = 1ULL << ir;
  // Row i: zero the local row of every tile in block row ib.
  for (Slot& s : rows_[ib].slots) {
    Tile* t = acquire(ib, s.cb, false);
    t->s[ir] = 0;
    t->p[ir] = 0;
  }
  // Column i: clear the local bit of every tile in block column ib.
  for (std::size_t rb = 0; rb < nb_; ++rb) {
    Tile* t = acquire(rb, ib, /*create=*/false);
    if (t == nullptr) continue;
    for (std::size_t r = 0; r < 64; ++r) {
      t->s[r] &= ~ibit;
      t->p[r] &= ~ibit;
    }
  }
  // Prune tiles the clears emptied (collect first: erasing invalidates).
  for (std::size_t rb = 0; rb < nb_; ++rb) {
    auto& slots = rows_[rb].slots;
    slots.erase(std::remove_if(slots.begin(), slots.end(),
                               [&](const Slot& s) {
                                 if (!s.tile || !tile_is_zero(*s.tile))
                                   return false;
                                 if (backend_ != nullptr) --resident_;
                                 return true;
                               }),
                slots.end());
  }
  checkpoint();
}

std::size_t TiledDepMatrix::count_nonzero() const {
  std::size_t c = 0;
  for (std::size_t rb = 0; rb < nb_; ++rb) {
    for (const Slot& s : rows_[rb].slots) {
      const Tile* t = acquire(rb, s.cb, false);
      c += tile_popcount(t->s);
    }
  }
  return c;
}

std::size_t TiledDepMatrix::count_path() const {
  std::size_t c = 0;
  for (std::size_t rb = 0; rb < nb_; ++rb) {
    for (const Slot& s : rows_[rb].slots) {
      const Tile* t = acquire(rb, s.cb, false);
      c += tile_popcount(t->p);
    }
  }
  return c;
}

void TiledDepMatrix::mark_endpoints(std::vector<bool>& endpoints) const {
  assert(endpoints.size() == n_);
  for (std::size_t rb = 0; rb < nb_; ++rb) {
    for (const Slot& s : rows_[rb].slots) {
      const Tile* t = acquire(rb, s.cb, false);
      std::uint64_t cols = 0;
      for (std::size_t r = 0; r < 64; ++r) {
        if (t->s[r] == 0) continue;
        endpoints[rb * 64 + r] = true;
        cols |= t->s[r];
      }
      while (cols) {
        const unsigned c = static_cast<unsigned>(std::countr_zero(cols));
        cols &= cols - 1;
        endpoints[s.cb * 64 + c] = true;
      }
    }
  }
}

std::size_t TiledDepMatrix::tiles_resident() const {
  std::size_t c = 0;
  for (const RowBlock& row : rows_) {
    for (const Slot& s : row.slots) {
      if (s.tile) ++c;
    }
  }
  return c;
}

std::size_t TiledDepMatrix::tiles_nonzero() const {
  std::size_t c = 0;
  for (const RowBlock& row : rows_) c += row.slots.size();
  return c;
}

std::uint64_t TiledDepMatrix::memory_bytes() const {
  // Content-derived (sizes, not vector capacities): a matrix restored
  // from the artifact store must report the same footprint as the run
  // that computed it, or warm analysis reports stop being byte-identical
  // to cold ones. Under a spill budget the figure still tracks the
  // actual resident tile set.
  std::uint64_t bytes = rows_.size() * sizeof(RowBlock);
  for (const RowBlock& row : rows_) {
    bytes += row.slots.size() * sizeof(Slot);
    for (const Slot& s : row.slots) {
      if (s.tile) bytes += kTileBytes;
      bytes += s.handle.size();
    }
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Kernels

void TiledDepMatrix::closure_plane(bool path_plane,
                                   const std::vector<std::uint64_t>& amask,
                                   ThreadPool* pool) {
  // Blocked Floyd-Warshall over one bit plane. For each 64-wide via block
  // K (restricted to active vias am): close the diagonal tile, push it
  // through K's row panel (D* ⊗ T[K][C]) and, per other row block R,
  // through the column panel (T[R][K] ⊗ D*) and the interior product
  // (T[R][K] ⊗ T[K][C]). Absent tiles contribute nothing and are skipped,
  // which is the entire block-sparse win. The result is the unique
  // closure over active intermediates, i.e. bit-identical to the dense
  // kernel. In-place panel updates are sound because D is closed first
  // (any chain through an already-updated row is subsumed by a direct
  // via, the standard blocked-FW argument).
  const bool parallel = use_pool(pool, nb_);
  auto rows_of = [path_plane](Tile* t) -> std::uint64_t* {
    return path_plane ? t->p : t->s;
  };
  for (std::size_t K = 0; K < nb_; ++K) {
    const std::uint64_t am = amask[K];
    if (am == 0) continue;
    Tile* dt = acquire(K, K, /*create=*/false);
    std::uint64_t* D = dt != nullptr ? rows_of(dt) : nullptr;
    if (D != nullptr) {
      // Close the diagonal tile over active vias. krow is copied, so the
      // via row stays stable while its own step runs.
      for (std::uint64_t vias = am; vias != 0; vias &= vias - 1) {
        const unsigned kk = static_cast<unsigned>(std::countr_zero(vias));
        const std::uint64_t krow = D[kk];
        if (krow == 0) continue;
        const std::uint64_t kb = 1ULL << kk;
        for (std::size_t i = 0; i < 64; ++i) {
          if (D[i] & kb) D[i] |= krow;
        }
      }
      // Row panel: every tile (K, C != K) absorbs D's reachability.
      auto& kslots = rows_[K].slots;
      auto panel = [&](std::size_t si) {
        Slot& s = kslots[si];
        if (s.cb == K) return;
        // acquire: faults a spilled tile in and marks it dirty before the
        // in-place update (no-op without a backend, and then thread-safe).
        std::uint64_t* T = rows_of(acquire(K, s.cb, false));
        for (std::uint64_t vias = am; vias != 0; vias &= vias - 1) {
          const unsigned kk = static_cast<unsigned>(std::countr_zero(vias));
          const std::uint64_t krow = T[kk];
          if (krow == 0) continue;
          const std::uint64_t kb = 1ULL << kk;
          for (std::size_t i = 0; i < 64; ++i) {
            if (D[i] & kb) T[i] |= krow;
          }
        }
      };
      if (parallel) {
        pool->parallel_for(0, kslots.size(), panel, /*grain=*/1);
      } else {
        for (std::size_t si = 0; si < kslots.size(); ++si) panel(si);
      }
    }
    // Column panel + interior, independent per row block R: each R only
    // mutates rows_[R] (interior creates tiles there) and reads the
    // stable row block K.
    auto row_block = [&](std::size_t R) {
      if (R == K) return;
      Tile* at = acquire(R, K, /*create=*/false);
      if (at == nullptr) return;
      std::uint64_t* A = rows_of(at);
      if (D != nullptr) {
        for (std::size_t r = 0; r < 64; ++r) {
          std::uint64_t vias = A[r] & am;
          std::uint64_t add = 0;
          while (vias != 0) {
            add |= D[std::countr_zero(vias)];
            vias &= vias - 1;
          }
          A[r] |= add;
        }
      }
      // Interior needs A after the column-panel update; copy it out —
      // creating tiles in rows_[R] below may reallocate the slot vector
      // that holds `at`.
      std::uint64_t arow[64];
      std::memcpy(arow, A, sizeof arow);
      for (const Slot& bslot : rows_[K].slots) {
        if (bslot.cb == K) continue;
        const std::uint64_t* B = rows_of(acquire(K, bslot.cb, false));
        Tile* dest = nullptr;
        std::uint64_t* dw = nullptr;
        for (std::size_t r = 0; r < 64; ++r) {
          std::uint64_t vias = arow[r] & am;
          if (vias == 0) continue;
          std::uint64_t add = 0;
          while (vias != 0) {
            add |= B[std::countr_zero(vias)];
            vias &= vias - 1;
          }
          if (add == 0) continue;
          if (dest == nullptr) {
            dest = acquire(R, bslot.cb, /*create=*/true);
            dw = rows_of(dest);
          }
          dw[r] |= add;
        }
      }
    };
    if (parallel) {
      pool->parallel_for(0, nb_, row_block, /*grain=*/1);
    } else {
      for (std::size_t R = 0; R < nb_; ++R) row_block(R);
    }
    checkpoint();
  }
}

void TiledDepMatrix::transitive_closure(const std::vector<bool>* active,
                                        ThreadPool* pool) {
  obs::Span span(obs::TraceSession::active(), "closure.transitive");
  ThreadPool* ep = backend_ != nullptr ? nullptr : pool;
  std::vector<std::uint64_t> amask(nb_, 0);
  for (std::size_t K = 0; K < nb_; ++K) {
    std::uint64_t m = edge_mask(K);
    if (active != nullptr) {
      std::uint64_t sel = 0;
      const std::size_t base = K * 64;
      for (std::size_t b = 0; b < 64 && base + b < n_; ++b) {
        if ((*active)[base + b]) sel |= 1ULL << b;
      }
      m &= sel;
    }
    amask[K] = m;
  }
  // Mirror the dense kernel: close P over path edges, S over all edges,
  // then re-establish P implies S per tile. Tiles created while closing
  // P carry an empty S plane until the fixup — same transient state the
  // dense planes go through.
  closure_plane(/*path_plane=*/true, amask, ep);
  closure_plane(/*path_plane=*/false, amask, ep);
  for (std::size_t rb = 0; rb < nb_; ++rb) {
    for (Slot& s : rows_[rb].slots) {
      Tile* t = acquire(rb, s.cb, false);
      or_words(t->s, t->p, 64);
    }
  }
  checkpoint();
}

void TiledDepMatrix::eliminate(std::size_t v) {
  assert(v < n_);
  const std::size_t vb = v >> 6;
  const std::size_t vr = v & 63;
  const std::uint64_t vbit = 1ULL << vr;
  // Snapshot v's outgoing row: (column block, S word, P word) triples.
  // The OR loop below creates tiles, which can invalidate any raw pointer
  // into the slot vectors — the snapshot keeps the source stable, exactly
  // like the dense kernel's "row v stays stable" precondition.
  struct VOut {
    std::uint32_t cb;
    std::uint64_t s;
    std::uint64_t p;
  };
  std::vector<VOut> vout;
  for (const Slot& s : rows_[vb].slots) {
    const Tile* t = s.tile ? s.tile.get() : acquire(vb, s.cb, false);
    if (t->s[vr] == 0) continue;
    vout.push_back(VOut{s.cb, t->s[vr], t->p[vr]});
  }
  if (!vout.empty()) {
    for (std::size_t pb = 0; pb < nb_; ++pb) {
      const Tile* col = acquire(pb, vb, /*create=*/false);
      if (col == nullptr) continue;
      // Column-v masks, snapshotted before any tile creation in block
      // row pb can move `col`.
      std::uint64_t col_s = 0;
      std::uint64_t col_p = 0;
      for (std::size_t r = 0; r < 64; ++r) {
        col_s |= ((col->s[r] >> vr) & 1ULL) << r;
        col_p |= ((col->p[r] >> vr) & 1ULL) << r;
      }
      if (pb == vb) col_s &= ~vbit, col_p &= ~vbit;  // skip p == v
      while (col_s != 0) {
        const unsigned r = static_cast<unsigned>(std::countr_zero(col_s));
        col_s &= col_s - 1;
        const bool in_path = ((col_p >> r) & 1ULL) != 0;
        const std::size_t p = pb * 64 + r;
        for (const VOut& out : vout) {
          Tile* dest = acquire(pb, out.cb, /*create=*/true);
          // Same diagonal rule as the dense kernel: bridging p->v->p is a
          // cycle through v, not a self-dependency of p.
          const bool diag = out.cb == pb;
          const std::uint64_t pbit = 1ULL << (p & 63);
          const std::uint64_t old_s = diag ? (dest->s[r] & pbit) : 0;
          const std::uint64_t old_p = diag ? (dest->p[r] & pbit) : 0;
          dest->s[r] |= out.s;
          if (in_path) dest->p[r] |= out.p;
          if (diag) {
            dest->s[r] = (dest->s[r] & ~pbit) | old_s;
            dest->p[r] = (dest->p[r] & ~pbit) | old_p;
          }
        }
      }
      checkpoint();
    }
  }
  clear_node(v);
}

// ---------------------------------------------------------------------------
// Queries, interchange, serialization

std::vector<std::size_t> TiledDepMatrix::successors(std::size_t i) const {
  assert(i < n_);
  std::vector<std::size_t> out;
  const std::size_t rb = i >> 6;
  const std::size_t r = i & 63;
  for (const Slot& s : rows_[rb].slots) {
    const Tile* t = acquire(rb, s.cb, false);
    std::uint64_t bits = t->s[r];
    while (bits != 0) {
      out.push_back(s.cb * 64 +
                    static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
  return out;
}

std::vector<std::size_t> TiledDepMatrix::path_successors(
    std::size_t i) const {
  assert(i < n_);
  std::vector<std::size_t> out;
  const std::size_t rb = i >> 6;
  const std::size_t r = i & 63;
  for (const Slot& s : rows_[rb].slots) {
    const Tile* t = acquire(rb, s.cb, false);
    std::uint64_t bits = t->p[r];
    while (bits != 0) {
      out.push_back(s.cb * 64 +
                    static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
  return out;
}

void TiledDepMatrix::for_each_entry(
    const std::function<void(std::size_t, std::size_t, DepKind)>& fn) const {
  for (std::size_t rb = 0; rb < nb_; ++rb) {
    for (const Slot& s : rows_[rb].slots) (void)acquire(rb, s.cb, false);
    for (std::size_t r = 0; r < 64; ++r) {
      const std::size_t i = rb * 64 + r;
      if (i >= n_) break;
      for (const Slot& s : rows_[rb].slots) {
        const Tile* t = s.tile.get();
        std::uint64_t bits = t->s[r];
        while (bits != 0) {
          const unsigned c = static_cast<unsigned>(std::countr_zero(bits));
          bits &= bits - 1;
          const std::uint64_t b = 1ULL << c;
          fn(i, s.cb * 64 + c,
             (t->p[r] & b) != 0 ? DepKind::Path : DepKind::Structural);
        }
      }
    }
  }
}

DepMatrix TiledDepMatrix::to_dense() const {
  const std::size_t wpr = (n_ + 63) / 64;
  std::vector<std::uint64_t> s(n_ * wpr, 0);
  std::vector<std::uint64_t> p(n_ * wpr, 0);
  for (std::size_t rb = 0; rb < nb_; ++rb) {
    for (const Slot& slot : rows_[rb].slots) {
      const Tile* t = acquire(rb, slot.cb, false);
      const std::size_t rmax = std::min<std::size_t>(64, n_ - rb * 64);
      for (std::size_t r = 0; r < rmax; ++r) {
        s[(rb * 64 + r) * wpr + slot.cb] |= t->s[r];
        p[(rb * 64 + r) * wpr + slot.cb] |= t->p[r];
      }
    }
  }
  DepMatrix out;
  const bool ok = DepMatrix::from_planes(n_, std::move(s), std::move(p), &out);
  assert(ok);
  (void)ok;
  return out;
}

TiledDepMatrix TiledDepMatrix::from_dense(const DepMatrix& m) {
  TiledDepMatrix out(m.size());
  const std::size_t wpr = m.words_per_row();
  const auto& s = m.plane_s();
  const auto& p = m.plane_p();
  for (std::size_t rb = 0; rb < out.nb_; ++rb) {
    const std::size_t rmax = std::min<std::size_t>(64, m.size() - rb * 64);
    for (std::size_t cb = 0; cb < wpr; ++cb) {
      Tile tile;
      std::memset(&tile, 0, sizeof tile);
      bool nonzero = false;
      for (std::size_t r = 0; r < rmax; ++r) {
        const std::size_t w = (rb * 64 + r) * wpr + cb;
        tile.s[r] = s[w];
        tile.p[r] = p[w];
        nonzero |= (s[w] | p[w]) != 0;
      }
      if (!nonzero) continue;
      Slot slot;
      slot.cb = static_cast<std::uint32_t>(cb);
      slot.tile = std::make_unique<Tile>(tile);
      out.rows_[rb].slots.push_back(std::move(slot));
    }
  }
  return out;
}

void TiledDepMatrix::for_each_tile(
    const std::function<void(std::size_t, std::size_t, const Tile&)>& fn)
    const {
  for (std::size_t rb = 0; rb < nb_; ++rb) {
    for (const Slot& s : rows_[rb].slots) {
      const Tile* t = acquire(rb, s.cb, false);
      if (tile_is_zero(*t)) continue;
      fn(rb, s.cb, *t);
    }
  }
}

bool TiledDepMatrix::insert_tile(std::size_t rb, std::size_t cb,
                                 const Tile& t) {
  if (rb >= nb_ || cb >= nb_) return false;
  auto& slots = rows_[rb].slots;
  if (!slots.empty() && slots.back().cb >= cb) return false;
  if (tile_is_zero(t)) return false;
  // Invariants the kernels rely on: no bits beyond row/column n-1, and
  // P implies S — a corrupt blob must not poison count_nonzero or the
  // word-parallel closures with stray tail bits.
  const std::uint64_t cmask = edge_mask(cb);
  const std::size_t rmax =
      rb + 1 == nb_ && n_ % 64 != 0 ? n_ % 64 : std::size_t{64};
  for (std::size_t r = 0; r < 64; ++r) {
    if (r >= rmax && (t.s[r] | t.p[r]) != 0) return false;
    if ((t.s[r] | t.p[r]) & ~cmask) return false;
    if (t.p[r] & ~t.s[r]) return false;
  }
  Slot slot;
  slot.cb = static_cast<std::uint32_t>(cb);
  slot.tile = std::make_unique<Tile>(t);
  if (backend_ != nullptr) {
    slot.stamp = ++clock_;
    ++resident_;
  }
  slots.push_back(std::move(slot));
  checkpoint();
  return true;
}

const TiledDepMatrix::Tile* TiledDepMatrix::tile_at(std::size_t rb,
                                                    std::size_t cb) const {
  return acquire(rb, cb, false);
}

void TiledDepMatrix::assign_tile(std::size_t rb, std::size_t cb,
                                 const Tile& t) {
  if (tile_is_zero(t)) {
    const Slot* s = find_slot(rb, cb);
    if (s == nullptr) return;
    // Reuse the mutator path that already knows how to drop a slot (and
    // its resident accounting) safely.
    Tile* resident = acquire(rb, cb, false);
    if (resident != nullptr) *resident = t;
    prune_if_zero(rb, cb);
    checkpoint();
    return;
  }
  Tile* dest = acquire(rb, cb, true);
  *dest = t;
  checkpoint();
}

bool operator==(const TiledDepMatrix& a, const TiledDepMatrix& b) {
  if (a.n_ != b.n_) return false;
  for (std::size_t rb = 0; rb < a.nb_; ++rb) {
    const auto& as = a.rows_[rb].slots;
    const auto& bs = b.rows_[rb].slots;
    std::size_t ia = 0;
    std::size_t ib = 0;
    // Merge-walk the sorted slot lists; a tile missing on one side must
    // be all-zero on the other (defensive — mutators prune zero tiles).
    while (ia < as.size() || ib < bs.size()) {
      const std::uint32_t ca =
          ia < as.size() ? as[ia].cb : std::numeric_limits<std::uint32_t>::max();
      const std::uint32_t cb =
          ib < bs.size() ? bs[ib].cb : std::numeric_limits<std::uint32_t>::max();
      if (ca < cb) {
        if (!tile_is_zero(*a.acquire(rb, ca, false))) return false;
        ++ia;
      } else if (cb < ca) {
        if (!tile_is_zero(*b.acquire(rb, cb, false))) return false;
        ++ib;
      } else {
        const TiledDepMatrix::Tile* ta = a.acquire(rb, ca, false);
        const TiledDepMatrix::Tile* tb = b.acquire(rb, cb, false);
        if (std::memcmp(ta, tb, sizeof(TiledDepMatrix::Tile)) != 0)
          return false;
        ++ia;
        ++ib;
      }
    }
  }
  return true;
}

}  // namespace rsnsec
