#include "store/dep_cache.hpp"

#include "obs/trace.hpp"

namespace rsnsec::store {

namespace {

/// Versioned domain label: any change to the key recipe or the snapshot
/// payload format must bump this, so old blobs become unreachable rather
/// than mis-decoded.
constexpr std::string_view kDepKeyLabel = "rsnsec-dep-v7";
/// The same rule for analyze reports (analysis_key and the report codec
/// in core/analyze).
constexpr std::string_view kAnalysisKeyLabel = "rsnsec-analyze-v1";

void encode_options_fingerprint(ByteWriter& w,
                                const dep::DepOptions& options) {
  w.u8(static_cast<std::uint8_t>(options.mode));
  w.u8(options.bridge_internal ? 1 : 0);
  w.varint(options.sat_conflict_limit);
  w.varint(options.seed);
  // Matrices are bit-identical either way, but the ternary_resolved /
  // sat_* counters the snapshot replays are not.
  w.u8(options.ternary_prefilter ? 1 : 0);
  // The representation choice selects the snapshot payload format (dense
  // vs. tiled sections) and the footprint stats, so it must split the key
  // space — otherwise a dense analyzer would keep discarding a tiled
  // analyzer's perfectly valid blobs and vice versa.
  w.u8(static_cast<std::uint8_t>(options.partition));
  // NOT num_threads: it has no effect. NOT tile_spill_budget /
  // spill_backend: pure execution knobs — the snapshot is always fully
  // resident.
}

void encode_bits(ByteWriter& w, const std::vector<bool>& bits) {
  w.varint(bits.size());
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) word |= 1ULL << (i & 63);
    if ((i & 63) == 63) {
      w.fixed64(word);
      word = 0;
    }
  }
  if (bits.size() % 64 != 0) w.fixed64(word);
}

std::vector<bool> decode_bits(ByteReader& r) {
  // 64 bits per word: the words must be present before the bits are
  // allocated.
  const std::uint64_t n = r.varint();
  if (n / 64 + (n % 64 != 0) > r.remaining() / 8)
    throw CodecError("bit vector exceeds the data");
  std::vector<bool> bits(static_cast<std::size_t>(n));
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if ((i & 63) == 0) word = r.fixed64();
    bits[i] = (word >> (i & 63)) & 1;
  }
  if (n % 64 != 0 && (word >> (n % 64)) != 0)
    throw CodecError("bit vector tail bits set");
  return bits;
}

/// Feeds `body` to `h` the way ByteWriter::str and ::section frame a
/// field: its varint length, then its bytes. A key hashed this way equals
/// the SHA-256 of the same fields written into one ByteWriter, without
/// copying them there.
void hash_framed(Sha256& h, std::string_view body) {
  ByteWriter length;
  length.varint(body.size());
  h.update(length.bytes());
  h.update(body);
}

}  // namespace

std::string dep_cache_key(const netlist::Netlist& nl, const rsn::Rsn& network,
                          const dep::DepOptions& options) {
  Sha256 h;
  hash_framed(h, kDepKeyLabel);
  {
    // The generated designs encode to 14-19 bytes a node, and 24 an
    // element plus up to 10 a scan FF: reserving that much saves the
    // buffer's regrowth copies.
    ByteWriter nl_bytes;
    nl_bytes.reserve(20 * nl.num_nodes() + 16 * nl.num_modules() + 16);
    encode_netlist(nl_bytes, nl);
    hash_framed(h, nl_bytes.bytes());
  }
  {
    ByteWriter rsn_bytes;
    rsn_bytes.reserve(24 * network.num_elements() +
                      8 * network.num_scan_ffs() + 16);
    encode_rsn(rsn_bytes, network);
    hash_framed(h, rsn_bytes.bytes());
  }
  ByteWriter opt_bytes;
  encode_options_fingerprint(opt_bytes, options);
  hash_framed(h, opt_bytes.bytes());
  return h.hex_digest();
}

std::string analysis_key(const dep::DepOptions& options,
                         std::string_view format, std::string_view top,
                         std::initializer_list<std::string_view> texts) {
  ByteWriter head;
  head.str(kAnalysisKeyLabel);
  encode_options_fingerprint(head, options);
  // The report carries dep_matrix_bytes and dep_tiles_spilled, which the
  // budget moves.
  head.varint(options.tile_spill_budget);
  head.str(format);
  head.str(top);
  Sha256 h;
  h.update(head.bytes());
  for (std::string_view text : texts) hash_framed(h, text);
  return h.hex_digest();
}

void encode_dep_stats(ByteWriter& w, const dep::DepStats& s) {
  // Logical result fields only: the wall-clock fields describe the run
  // that produced the snapshot, not the result, and restore() zeroes
  // them regardless.
  w.varint(s.circuit_ffs);
  w.varint(s.internal_ffs);
  w.varint(s.denoted_ffs_before);
  w.varint(s.denoted_ffs_after);
  w.varint(s.deps_before_bridging);
  w.varint(s.deps_after_bridging);
  w.varint(s.closure_deps);
  w.varint(s.closure_path_deps);
  w.varint(s.sim_resolved);
  w.varint(s.ternary_resolved);
  w.varint(s.sat_calls);
  w.varint(s.sat_functional);
  w.varint(s.sat_structural);
  w.varint(s.sat_unknown);
  w.varint(s.cone_cache_hits);
  w.varint(s.solver_solves);
  w.varint(s.solver_conflicts);
  w.varint(s.solver_decisions);
  w.varint(s.solver_propagations);
  w.varint(s.solver_restarts);
  w.varint(s.solver_learned);
  w.varint(s.lbd_protected);
  w.varint(s.cores_reused);
  w.varint(s.rotation_witnesses);
  // v4: partition region count (restore() recomputes it anyway and
  // prefers the live value; encoded for payload self-containedness). The
  // footprint fields (matrix_bytes, tiles_*) are intentionally absent:
  // they describe the producing process, not the result, and restore()
  // refreshes them from the restored matrices.
  w.varint(s.regions);
}

dep::DepStats decode_dep_stats(ByteReader& r) {
  dep::DepStats s;
  s.circuit_ffs = static_cast<std::size_t>(r.varint());
  s.internal_ffs = static_cast<std::size_t>(r.varint());
  s.denoted_ffs_before = static_cast<std::size_t>(r.varint());
  s.denoted_ffs_after = static_cast<std::size_t>(r.varint());
  s.deps_before_bridging = static_cast<std::size_t>(r.varint());
  s.deps_after_bridging = static_cast<std::size_t>(r.varint());
  s.closure_deps = static_cast<std::size_t>(r.varint());
  s.closure_path_deps = static_cast<std::size_t>(r.varint());
  s.sim_resolved = r.varint();
  s.ternary_resolved = r.varint();
  s.sat_calls = r.varint();
  s.sat_functional = r.varint();
  s.sat_structural = r.varint();
  s.sat_unknown = r.varint();
  s.cone_cache_hits = r.varint();
  s.solver_solves = r.varint();
  s.solver_conflicts = r.varint();
  s.solver_decisions = r.varint();
  s.solver_propagations = r.varint();
  s.solver_restarts = r.varint();
  s.solver_learned = r.varint();
  s.lbd_protected = r.varint();
  s.cores_reused = r.varint();
  s.rotation_witnesses = r.varint();
  s.regions = static_cast<std::size_t>(r.varint());
  return s;
}

void encode_dep_snapshot(ByteWriter& w,
                         const dep::DependencyAnalyzer::AnalysisSnapshot& s) {
  encode_bits(w, s.internal);
  // v4: representation flag selects which pair of matrix sections
  // follows. Tiled snapshots store only the non-zero tiles — on sparse
  // large-scale matrices the blob shrinks by the same factor as RAM.
  w.u8(s.tiled ? 1 : 0);
  if (s.tiled) {
    ByteWriter one_cycle;
    encode_tiled_matrix(one_cycle, s.one_cycle_tiled);
    w.section(one_cycle);
    ByteWriter closure;
    encode_tiled_matrix(closure, s.closure_tiled);
    w.section(closure);
  } else {
    ByteWriter one_cycle;
    encode_dep_matrix(one_cycle, s.one_cycle);
    w.section(one_cycle);
    ByteWriter closure;
    encode_dep_matrix(closure, s.closure);
    w.section(closure);
  }
  w.varint(s.capture_deps.size());
  for (const auto& reg : s.capture_deps) {
    w.varint(reg.size());
    for (const auto& deps : reg) {
      w.varint(deps.size());
      for (const dep::CaptureDep& d : deps) {
        w.varint(d.circuit_ff);
        w.u8(static_cast<std::uint8_t>(d.kind));
      }
    }
  }
  encode_dep_stats(w, s.stats);
}

dep::DependencyAnalyzer::AnalysisSnapshot decode_dep_snapshot(ByteReader& r) {
  dep::DependencyAnalyzer::AnalysisSnapshot s;
  s.internal = decode_bits(r);
  const std::uint8_t tiled = r.u8();
  if (tiled > 1) throw CodecError("matrix representation flag out of range");
  s.tiled = tiled != 0;
  // Both matrices are circuit-FF square, like the internal bits. Checking
  // the dimension before decoding keeps a corrupted one from sizing the
  // tiled row index, which the tile payload does not bound.
  auto matrix_section = [&](auto decode) {
    ByteReader sec = r.section();
    ByteReader peek = sec;
    if (peek.varint() != s.internal.size())
      throw CodecError("matrix dimension differs from the FF count");
    auto m = decode(sec);
    sec.expect_end();
    return m;
  };
  if (s.tiled) {
    s.one_cycle_tiled = matrix_section(decode_tiled_matrix);
    s.closure_tiled = matrix_section(decode_tiled_matrix);
  } else {
    s.one_cycle = matrix_section(decode_dep_matrix);
    s.closure = matrix_section(decode_dep_matrix);
  }
  // Minimum encoded sizes: a register is its FF count, a scan FF its
  // dependency count (>= 1 byte each); a dependency is a node varint and
  // a kind byte (>= 2 bytes).
  s.capture_deps.resize(r.count(1));
  for (auto& reg : s.capture_deps) {
    reg.resize(r.count(1));
    for (auto& deps : reg) {
      const std::size_t n = r.count(2);
      deps.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t ff = r.varint();
        if (ff >= netlist::no_node)
          throw CodecError("capture dependency node id out of range");
        std::uint8_t kind = r.u8();
        if (kind == 0 || kind > static_cast<std::uint8_t>(DepKind::Path))
          throw CodecError("capture dependency kind out of range");
        deps.push_back({static_cast<netlist::NodeId>(ff),
                        static_cast<DepKind>(kind)});
      }
    }
  }
  s.stats = decode_dep_stats(r);
  return s;
}

bool run_with_store(ArtifactStore* store,
                    dep::DependencyAnalyzer& analyzer) {
  if (store == nullptr) {
    analyzer.run();
    return false;
  }
  obs::TraceSession* trace = obs::TraceSession::active();
  std::string key;
  {
    obs::Span span(trace, "store.key");
    key = dep_cache_key(analyzer.circuit(), analyzer.network(),
                        analyzer.options());
  }
  {
    obs::Span span(trace, "store.load");
    if (std::optional<std::string> payload = store->load(key)) {
      bool restored = false;
      try {
        ByteReader r(*payload);
        dep::DependencyAnalyzer::AnalysisSnapshot snap =
            decode_dep_snapshot(r);
        r.expect_end();
        restored = analyzer.restore(std::move(snap), nullptr);
      } catch (const CodecError&) {
        restored = false;
      }
      if (restored) {
        store->note_hit();
        return true;
      }
      // Valid envelope, un-replayable payload (hand-edited blob or a
      // hash collision — practically the former): drop it and recompute.
      store->discard(key);
    }
  }
  analyzer.run();
  store->note_miss();
  {
    obs::Span span(trace, "store.publish");
    ByteWriter w;
    encode_dep_snapshot(w, analyzer.snapshot());
    try {
      store->put(key, w.bytes());
    } catch (const std::exception&) {
      // Publication failure (read-only store, disk full) must not fail
      // the analysis itself; the next process simply recomputes.
    }
  }
  return false;
}

}  // namespace rsnsec::store
