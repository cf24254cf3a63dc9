#pragma once

#include <initializer_list>
#include <string>
#include <string_view>

#include "dep/analyzer.hpp"
#include "store/artifact_store.hpp"
#include "store/codec.hpp"

namespace rsnsec::store {

/// Content-addressed cache key of a dependency analysis: SHA-256 over a
/// versioned label, the canonical encodings of circuit and RSN, and a
/// fingerprint of every DepOptions field that can influence the result —
/// mode, bridging, conflict limit, seed, the ternary prefilter and the
/// partition mode. num_threads, which has no effect, is deliberately
/// excluded, so every value shares one cache entry.
std::string dep_cache_key(const netlist::Netlist& nl, const rsn::Rsn& network,
                          const dep::DepOptions& options);

/// Content-addressed key of an analyze report (core::analyze on texts):
/// SHA-256 over a versioned label, dep_cache_key's option fingerprint
/// plus tile_spill_budget (it moves the report's footprint figures), the
/// network's format ("rsn" or "icl") and top module, and every byte of
/// `texts` (network, Verilog, spec), each length-prefixed. It hashes the
/// request as sent, so a hit needs no reader; any edit, even a comment,
/// is another key. num_threads and spill_backend stay out, as above.
std::string analysis_key(const dep::DepOptions& options,
                         std::string_view format, std::string_view top,
                         std::initializer_list<std::string_view> texts);

/// The logical DepStats fields (counters and the region count; no
/// timings, no footprint), shared by the snapshot and the analyze report.
void encode_dep_stats(ByteWriter& w, const dep::DepStats& s);
dep::DepStats decode_dep_stats(ByteReader& r);

/// Codec for the analysis result payload stored under the key. Decode
/// throws CodecError on any malformed input; shape validation against the
/// actual circuit/RSN happens in DependencyAnalyzer::restore.
void encode_dep_snapshot(ByteWriter& w,
                         const dep::DependencyAnalyzer::AnalysisSnapshot& s);
dep::DependencyAnalyzer::AnalysisSnapshot decode_dep_snapshot(ByteReader& r);

/// Runs `analyzer` through the store: on a hit the cached snapshot is
/// replayed (no analysis work, no SAT calls — the `dep.*` obs counters
/// stay untouched); on a miss run() executes and the result is published
/// for the next process. A null store degrades to a plain run(). Returns
/// true iff the result was served from the store. Counts store.hits /
/// store.misses; a blob that decodes but fails shape validation is
/// discarded as corrupt and recomputed (exactly one miss).
bool run_with_store(ArtifactStore* store, dep::DependencyAnalyzer& analyzer);

}  // namespace rsnsec::store
