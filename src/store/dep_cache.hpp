#pragma once

#include <string>

#include "dep/analyzer.hpp"
#include "store/artifact_store.hpp"
#include "store/codec.hpp"

namespace rsnsec::store {

/// Content-addressed cache key of a dependency analysis: SHA-256 over a
/// versioned label, the canonical encodings of circuit and RSN, and a
/// fingerprint of every DepOptions field that can influence the result —
/// mode, bridging, conflict limit, seed, the ternary prefilter and the
/// partition mode. num_threads is deliberately
/// excluded: the engine is bit-identical at any thread count, so all
/// thread counts share one cache entry.
std::string dep_cache_key(const netlist::Netlist& nl, const rsn::Rsn& network,
                          const dep::DepOptions& options);

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
