#include "util/dep_matrix.hpp"

#include <bit>
#include <cassert>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace rsnsec {

namespace {

/// Rows below this dimension are not worth a parallel dispatch per
/// elimination step / round: the synchronization would dominate.
constexpr std::size_t kMinParallelRows = 192;

bool use_pool(const ThreadPool* pool, std::size_t n) {
  return pool != nullptr && pool->num_threads() > 1 && n >= kMinParallelRows;
}

}  // namespace

DepMatrix::DepMatrix(std::size_t n)
    : n_(n),
      words_per_row_((n + 63) / 64),
      s_(n * words_per_row_, 0),
      p_(n * words_per_row_, 0) {}

DepKind DepMatrix::get(std::size_t i, std::size_t j) const {
  assert(i < n_ && j < n_);
  if (p_[word(i, j)] & bit(j)) return DepKind::Path;
  if (s_[word(i, j)] & bit(j)) return DepKind::Structural;
  return DepKind::None;
}

void DepMatrix::upgrade(std::size_t i, std::size_t j, DepKind k) {
  assert(i < n_ && j < n_);
  if (k == DepKind::None) return;
  s_[word(i, j)] |= bit(j);
  if (k == DepKind::Path) p_[word(i, j)] |= bit(j);
}

void DepMatrix::set(std::size_t i, std::size_t j, DepKind k) {
  assert(i < n_ && j < n_);
  s_[word(i, j)] &= ~bit(j);
  p_[word(i, j)] &= ~bit(j);
  upgrade(i, j, k);
}

void DepMatrix::clear_node(std::size_t i) {
  assert(i < n_);
  for (std::size_t w = 0; w < words_per_row_; ++w) {
    s_[i * words_per_row_ + w] = 0;
    p_[i * words_per_row_ + w] = 0;
  }
  for (std::size_t r = 0; r < n_; ++r) {
    s_[word(r, i)] &= ~bit(i);
    p_[word(r, i)] &= ~bit(i);
  }
}

std::size_t DepMatrix::count_nonzero() const {
  std::size_t c = 0;
  for (auto w : s_) c += static_cast<std::size_t>(std::popcount(w));
  return c;
}

std::size_t DepMatrix::count_path() const {
  std::size_t c = 0;
  for (auto w : p_) c += static_cast<std::size_t>(std::popcount(w));
  return c;
}

void DepMatrix::closure_plane(std::vector<std::uint64_t>& plane,
                              const std::vector<bool>* active,
                              ThreadPool* pool) {
  // Warshall's algorithm with bit-parallel row unions: for each allowed
  // intermediate node k, every row that reaches k absorbs k's row. The
  // rows of one elimination step are independent (row i only reads the
  // via row k — which i == k skipping keeps stable — and writes itself),
  // so they can be processed as parallel blocks without changing any bit
  // of the result.
  const bool parallel = use_pool(pool, n_);
  for (std::size_t k = 0; k < n_; ++k) {
    if (active && !(*active)[k]) continue;
    const std::uint64_t* krow = &plane[k * words_per_row_];
    auto absorb = [&](std::size_t i) {
      if (i == k) return;
      std::uint64_t* irow = &plane[i * words_per_row_];
      if (!(irow[k >> 6] & bit(k))) return;
      for (std::size_t w = 0; w < words_per_row_; ++w) irow[w] |= krow[w];
    };
    if (parallel) {
      pool->parallel_for(0, n_, absorb, /*grain=*/64);
    } else {
      for (std::size_t i = 0; i < n_; ++i) absorb(i);
    }
  }
}

void DepMatrix::transitive_closure(const std::vector<bool>* active,
                                   ThreadPool* pool) {
  obs::Span span(obs::TraceSession::active(), "closure.transitive");
  // Path-dependence closes over functional (path) edges only; structural
  // dependence closes over all edges. Closing the planes independently
  // implements exactly the compose_dep semantics.
  closure_plane(p_, active, pool);
  closure_plane(s_, active, pool);
  // Re-establish the P-implies-S invariant (closure of P may add pairs the
  // S plane already had anyway, but be defensive).
  for (std::size_t w = 0; w < s_.size(); ++w) s_[w] |= p_[w];
}

void DepMatrix::eliminate(std::size_t v) {
  assert(v < n_);
  const std::uint64_t* vrow_s = &s_[v * words_per_row_];
  const std::uint64_t* vrow_p = &p_[v * words_per_row_];
  const std::size_t vw = v >> 6;
  const std::uint64_t vb = bit(v);
  // Scan column v for predecessors p of v; for each, OR v's outgoing row
  // into p's row word-parallel. compose_dep(in, out): a Path in-edge keeps
  // out kinds as-is; a Structural in-edge demotes every composition to
  // Structural (so only the S plane is extended). Row v stays stable
  // during the loop (p == v is skipped), so no snapshot is needed.
  for (std::size_t p = 0; p < n_; ++p) {
    if (p == v) continue;
    if (!(s_[p * words_per_row_ + vw] & vb)) continue;
    const bool in_path = (p_[p * words_per_row_ + vw] & vb) != 0;
    std::uint64_t* prow_s = &s_[p * words_per_row_];
    std::uint64_t* prow_p = &p_[p * words_per_row_];
    // Bridging never introduces a (p, p) self-dependency: a chain p->v->p
    // is a cycle through the eliminated node, not a dependency of p on
    // itself at the bridged granularity. The word-OR would set it when v
    // has an edge back to p, so preserve the old diagonal bit. (The ORed
    // (p, v) bit — when v has a self-loop — is wiped by clear_node below.)
    const std::size_t pw = p >> 6;
    const std::uint64_t pb = bit(p);
    const std::uint64_t old_diag_s = prow_s[pw] & pb;
    const std::uint64_t old_diag_p = prow_p[pw] & pb;
    if (in_path) {
      for (std::size_t w = 0; w < words_per_row_; ++w) {
        prow_s[w] |= vrow_s[w];
        prow_p[w] |= vrow_p[w];
      }
    } else {
      for (std::size_t w = 0; w < words_per_row_; ++w) prow_s[w] |= vrow_s[w];
    }
    prow_s[pw] = (prow_s[pw] & ~pb) | old_diag_s;
    prow_p[pw] = (prow_p[pw] & ~pb) | old_diag_p;
  }
  clear_node(v);
}

bool DepMatrix::from_planes(std::size_t n, std::vector<std::uint64_t> s,
                            std::vector<std::uint64_t> p, DepMatrix* out) {
  const std::size_t wpr = (n + 63) / 64;
  if (s.size() != n * wpr || p.size() != n * wpr) return false;
  // Tail bits beyond column n-1 must be clear: count_nonzero() and the
  // word-parallel kernels assume it.
  if (n % 64 != 0 && wpr > 0) {
    const std::uint64_t tail_mask = ~((1ULL << (n % 64)) - 1);
    for (std::size_t r = 0; r < n; ++r) {
      if ((s[r * wpr + wpr - 1] | p[r * wpr + wpr - 1]) & tail_mask)
        return false;
    }
  }
  for (std::size_t w = 0; w < p.size(); ++w) {
    if (p[w] & ~s[w]) return false;  // P implies S
  }
  out->n_ = n;
  out->words_per_row_ = wpr;
  out->s_ = std::move(s);
  out->p_ = std::move(p);
  return true;
}

std::vector<std::size_t> DepMatrix::successors(std::size_t i) const {
  std::vector<std::size_t> out;
  for (std::size_t w = 0; w < words_per_row_; ++w) {
    std::uint64_t bits = s_[i * words_per_row_ + w];
    while (bits) {
      unsigned tz = static_cast<unsigned>(std::countr_zero(bits));
      out.push_back(w * 64 + tz);
      bits &= bits - 1;
    }
  }
  return out;
}

std::vector<std::size_t> DepMatrix::predecessors(std::size_t i) const {
  std::vector<std::size_t> out;
  for (std::size_t r = 0; r < n_; ++r) {
    if (s_[word(r, i)] & bit(i)) out.push_back(r);
  }
  return out;
}

}  // namespace rsnsec
