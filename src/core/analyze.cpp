#include "core/analyze.hpp"

#include <optional>
#include <stdexcept>

#include "netlist/verilog.hpp"
#include "obs/trace.hpp"
#include "rsn/icl.hpp"
#include "security/hybrid.hpp"
#include "security/pure.hpp"
#include "security/spec_io.hpp"
#include "store/artifact_store.hpp"
#include "store/dep_cache.hpp"

namespace rsnsec {

Workload attach_design(rsn::RsnDocument doc, std::string_view verilog,
                       std::string_view spec) {
  std::string err;
  if (!doc.network.validate(&err))
    throw std::invalid_argument("invalid scan network: " + err);
  Workload w;
  w.doc = std::move(doc);
  netlist::verilog::ParsedCircuit parsed = netlist::verilog::parse(verilog);
  rsn::apply_attachments(w.doc, parsed.nets);
  w.circuit = std::move(parsed.netlist);
  w.spec = security::read_spec(spec, w.doc.module_names);
  return w;
}

rsn::RsnDocument read_network(const DesignText& text) {
  if (!text.icl) return rsn::read_rsn(text.network);
  return rsn::icl::elaborate(rsn::icl::parse(text.network),
                             std::string(text.top));
}

Workload load_design(const DesignText& text) {
  return attach_design(read_network(text), text.verilog, text.spec);
}

AnalyzeResult analyze(const Workload& w, const dep::DepOptions& options,
                      store::ArtifactStore* store) {
  AnalyzeResult result;
  dep::DependencyAnalyzer deps(w.circuit, w.doc.network, options);
  result.cache_hit = store::run_with_store(store, deps);

  security::TokenTable tokens(w.spec, w.spec.num_modules());
  security::HybridAnalyzer hybrid(w.circuit, w.doc.network, deps, w.spec,
                                  tokens);
  security::StaticReport st = hybrid.check_static();
  security::HybridAnalyzer::ViolationCounts counts =
      hybrid.count_violations(w.doc.network);

  AnalyzeReport& rep = result.report;
  rep.insecure_logic = st.insecure_logic;
  rep.intra_segment = st.intra_segment;
  rep.pure_violating_pairs = security::PureScanAnalyzer(w.spec, tokens)
                                 .count_violating_pairs(w.doc.network);
  rep.hybrid_violating_pairs = counts.pairs;
  rep.violating_registers = counts.registers;
  rep.dep_mode = deps.options().mode;
  rep.dep_ternary_prefilter = deps.options().ternary_prefilter;
  rep.dep_partition = deps.options().partition;
  rep.dep_tiled = deps.tiled();
  rep.dep_stats = deps.stats();
  result.static_details = std::move(st.details);
  return result;
}

namespace {

AnalyzeResult analyze_design(const DesignText& text,
                             const dep::DepOptions& options,
                             store::ArtifactStore* store) {
  const Workload w = load_design(text);
  try {
    return analyze(w, options, store);
  } catch (const std::exception& e) {
    throw AnalysisError(e.what());
  }
}

/// Reads a flag byte, which must be 0 or 1.
bool decode_flag(store::ByteReader& r) {
  const std::uint8_t b = r.u8();
  if (b > 1) throw store::CodecError("report flag out of range");
  return b != 0;
}

/// Reads an enum byte no larger than `last`.
template <typename Enum>
Enum decode_enum(store::ByteReader& r, Enum last) {
  const std::uint8_t b = r.u8();
  if (b > static_cast<std::uint8_t>(last))
    throw store::CodecError("report enum out of range");
  return static_cast<Enum>(b);
}

}  // namespace

ReportLookup lookup_report(const DesignText& text,
                           const dep::DepOptions& options,
                           store::ArtifactStore& store) {
  obs::Span span(obs::TraceSession::active(), "analyze.lookup");
  ReportLookup lookup;
  lookup.key = store::analysis_key(options, text.icl ? "icl" : "rsn",
                                   text.top,
                                   {text.network, text.verilog, text.spec});
  if (std::optional<std::string> payload = store.load(lookup.key)) {
    try {
      lookup.hit = decode_analyze_result(*payload);
      lookup.hit->cache_hit = true;
      store.note_hit();
    } catch (const store::CodecError&) {
      store.discard(lookup.key);
    }
  }
  return lookup;
}

AnalyzeResult analyze(const DesignText& text, const dep::DepOptions& options,
                      store::ArtifactStore* store) {
  if (store == nullptr) return analyze_design(text, options, nullptr);
  ReportLookup lookup = lookup_report(text, options, *store);
  if (lookup.hit) return std::move(*lookup.hit);
  AnalyzeResult result = analyze_design(text, options, store);
  obs::Span span(obs::TraceSession::active(), "analyze.publish");
  try {
    store->put(lookup.key, encode_analyze_result(result));
  } catch (const std::exception&) {
    // As for snapshots: a store that cannot take the report (read-only,
    // disk full) costs the next request a parse, not this one its answer.
  }
  return result;
}

std::string encode_analyze_result(const AnalyzeResult& r) {
  const AnalyzeReport& rep = r.report;
  store::ByteWriter w;
  w.u8(rep.insecure_logic ? 1 : 0);
  w.u8(rep.intra_segment ? 1 : 0);
  w.varint(rep.pure_violating_pairs);
  w.varint(rep.hybrid_violating_pairs);
  w.varint(rep.violating_registers);
  w.u8(static_cast<std::uint8_t>(rep.dep_mode));
  w.u8(rep.dep_ternary_prefilter ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(rep.dep_partition));
  w.u8(rep.dep_tiled ? 1 : 0);
  store::encode_dep_stats(w, rep.dep_stats);
  w.varint(rep.dep_stats.matrix_bytes);
  w.varint(rep.dep_stats.tiles_nonzero);
  w.varint(rep.dep_stats.tiles_spilled);
  w.varint(r.static_details.size());
  for (const std::string& d : r.static_details) w.str(d);
  w.fixed64(store::fnv1a64(w.bytes()));
  return w.take();
}

AnalyzeResult decode_analyze_result(std::string_view payload) {
  if (payload.size() < 8)
    throw store::CodecError("report shorter than its seal");
  const std::string_view body = payload.substr(0, payload.size() - 8);
  store::ByteReader seal(payload.substr(body.size()));
  if (seal.fixed64() != store::fnv1a64(body))
    throw store::CodecError("report seal does not match");
  store::ByteReader r(body);
  AnalyzeResult result;
  AnalyzeReport& rep = result.report;
  rep.insecure_logic = decode_flag(r);
  rep.intra_segment = decode_flag(r);
  rep.pure_violating_pairs = static_cast<std::size_t>(r.varint());
  rep.hybrid_violating_pairs = static_cast<std::size_t>(r.varint());
  rep.violating_registers = static_cast<std::size_t>(r.varint());
  rep.dep_mode = decode_enum(r, dep::DepMode::StructuralOnly);
  rep.dep_ternary_prefilter = decode_flag(r);
  rep.dep_partition = decode_enum(r, dep::PartitionMode::Tiled);
  rep.dep_tiled = decode_flag(r);
  rep.dep_stats = store::decode_dep_stats(r);
  rep.dep_stats.matrix_bytes = r.varint();
  rep.dep_stats.tiles_nonzero = r.varint();
  rep.dep_stats.tiles_spilled = r.varint();
  // A detail line is at least its length byte.
  result.static_details.resize(r.count(1));
  for (std::string& d : result.static_details) d = r.str();
  r.expect_end();
  return result;
}

}  // namespace rsnsec
