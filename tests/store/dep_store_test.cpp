// End-to-end contract of the dependency-analysis cache: a warm start
// served from the artifact store is bit-identical to recomputation on
// every BASTION family, the cache key tracks exactly the inputs that can
// change the result, and a warm pipeline run performs zero dependency
// work (no SAT calls) — the acceptance criterion of the store subsystem.

#include "store/dep_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/specgen.hpp"
#include "core/tool.hpp"
#include "netlist/verilog.hpp"
#include "obs/trace.hpp"
#include "rsn/io.hpp"
#include "store/artifact_store.hpp"

namespace rsnsec::dep {
// Namespace scope so ADL finds it from std::vector's element-wise
// comparison (same technique as partitioned_oracle_test.cpp).
static bool operator==(const CaptureDep& a, const CaptureDep& b) {
  return a.circuit_ff == b.circuit_ff && a.kind == b.kind;
}
}  // namespace rsnsec::dep

namespace rsnsec::store {
namespace {

namespace fs = std::filesystem;

using dep::DependencyAnalyzer;
using dep::DepOptions;
using dep::DepStats;

fs::path test_root() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir = fs::temp_directory_path() / "rsnsec_store_tests" /
                 (std::string(info->test_suite_name()) + "." + info->name());
  fs::remove_all(dir);
  return dir;
}

struct Workload {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;

  explicit Workload(const std::string& family, std::uint64_t seed = 11,
                    double target_ffs = 60) {
    Rng rng(seed);
    const benchgen::BenchmarkProfile& p = benchgen::bastion_profile(family);
    double scale = target_ffs / static_cast<double>(p.scan_ffs);
    if (scale > 1.0) scale = 1.0;
    doc = benchgen::generate_bastion(p, scale, rng);
    circuit = benchgen::attach_random_circuit(doc, {}, rng);
  }
};

/// Full logical-result comparison: matrices, capture dependencies and
/// every DepStats counter. Timings are excluded — a replayed analysis
/// does no work, so they legitimately differ.
void expect_identical(const Workload& w, const DependencyAnalyzer& a,
                      const DependencyAnalyzer& b, const char* label) {
  EXPECT_TRUE(a.one_cycle() == b.one_cycle()) << label;
  EXPECT_TRUE(a.circuit_closure() == b.circuit_closure()) << label;
  ASSERT_EQ(a.num_circuit_ffs(), b.num_circuit_ffs()) << label;
  for (std::size_t i = 0; i < a.num_circuit_ffs(); ++i)
    EXPECT_EQ(a.is_internal(i), b.is_internal(i)) << label << " ff " << i;
  for (rsn::ElemId r : w.doc.network.registers()) {
    const rsn::Element& e = w.doc.network.elem(r);
    for (std::size_t f = 0; f < e.ffs.size(); ++f) {
      EXPECT_TRUE(a.capture_deps(r, f) == b.capture_deps(r, f))
          << label << " register " << r << " ff " << f;
    }
  }
  const DepStats &sa = a.stats(), &sb = b.stats();
  EXPECT_EQ(sa.circuit_ffs, sb.circuit_ffs) << label;
  EXPECT_EQ(sa.internal_ffs, sb.internal_ffs) << label;
  EXPECT_EQ(sa.denoted_ffs_before, sb.denoted_ffs_before) << label;
  EXPECT_EQ(sa.denoted_ffs_after, sb.denoted_ffs_after) << label;
  EXPECT_EQ(sa.deps_before_bridging, sb.deps_before_bridging) << label;
  EXPECT_EQ(sa.deps_after_bridging, sb.deps_after_bridging) << label;
  EXPECT_EQ(sa.closure_deps, sb.closure_deps) << label;
  EXPECT_EQ(sa.closure_path_deps, sb.closure_path_deps) << label;
  EXPECT_EQ(sa.sim_resolved, sb.sim_resolved) << label;
  EXPECT_EQ(sa.sat_calls, sb.sat_calls) << label;
  EXPECT_EQ(sa.sat_functional, sb.sat_functional) << label;
  EXPECT_EQ(sa.sat_structural, sb.sat_structural) << label;
  EXPECT_EQ(sa.sat_unknown, sb.sat_unknown) << label;
  EXPECT_EQ(sa.cone_cache_hits, sb.cone_cache_hits) << label;
  EXPECT_EQ(sa.solver_solves, sb.solver_solves) << label;
  EXPECT_EQ(sa.solver_conflicts, sb.solver_conflicts) << label;
  EXPECT_EQ(sa.solver_propagations, sb.solver_propagations) << label;
  EXPECT_EQ(sa.cores_reused, sb.cores_reused) << label;
  EXPECT_EQ(sa.rotation_witnesses, sb.rotation_witnesses) << label;
}

// The ISSUE's acceptance criterion: on ALL BASTION families, an analysis
// served from the store is bit-identical to recomputation.
TEST(DepStore, WarmStartBitIdenticalOnAllBastionFamilies) {
  ArtifactStore store(test_root());
  std::uint64_t runs = 0;
  for (const benchgen::BenchmarkProfile& p : benchgen::bastion_profiles()) {
    Workload w(p.name);
    DependencyAnalyzer cold(w.circuit, w.doc.network, {});
    EXPECT_FALSE(run_with_store(&store, cold)) << p.name;  // miss: computes

    DependencyAnalyzer warm(w.circuit, w.doc.network, {});
    EXPECT_TRUE(run_with_store(&store, warm)) << p.name;  // hit: replays
    EXPECT_EQ(warm.stats().t_one_cycle, 0.0) << p.name;
    expect_identical(w, cold, warm, p.name.c_str());
    ++runs;
    EXPECT_EQ(store.counters().hits, runs);
    EXPECT_EQ(store.counters().misses, runs);
  }
  EXPECT_EQ(runs, 13u);  // all published BASTION families covered
}

TEST(DepStore, WarmStartSurvivesProcessBoundary) {
  // A second store instance over the same root models a fresh process:
  // no memory tier carry-over, the blob comes from disk.
  fs::path root = test_root();
  Workload w("Mingle");
  {
    ArtifactStore store(root);
    DependencyAnalyzer cold(w.circuit, w.doc.network, {});
    ASSERT_FALSE(run_with_store(&store, cold));
  }
  ArtifactStore store(root);
  DependencyAnalyzer warm(w.circuit, w.doc.network, {});
  EXPECT_TRUE(run_with_store(&store, warm));

  DependencyAnalyzer reference(w.circuit, w.doc.network, {});
  reference.run();
  expect_identical(w, reference, warm, "Mingle across processes");
}

TEST(DepStore, NullStoreDegradesToPlainRun) {
  Workload w("BasicSCB");
  DependencyAnalyzer a(w.circuit, w.doc.network, {});
  EXPECT_FALSE(run_with_store(nullptr, a));
  EXPECT_GT(a.stats().circuit_ffs, 0u);
}

TEST(DepStore, KeyIgnoresThreadCountOnly) {
  Workload w("BasicSCB");
  DepOptions base;
  std::string k = dep_cache_key(w.circuit, w.doc.network, base);
  EXPECT_TRUE(is_store_key(k));

  // num_threads is presentation, not semantics: any thread count yields
  // bit-identical results (PR 2), so all counts share one entry.
  DepOptions threads = base;
  threads.num_threads = 8;
  EXPECT_EQ(dep_cache_key(w.circuit, w.doc.network, threads), k);

  // Every result-affecting knob must change the key.
  DepOptions seed = base;
  seed.seed = 99;
  EXPECT_NE(dep_cache_key(w.circuit, w.doc.network, seed), k);
  DepOptions mode = base;
  mode.mode = dep::DepMode::StructuralOnly;
  EXPECT_NE(dep_cache_key(w.circuit, w.doc.network, mode), k);
  DepOptions bridge = base;
  bridge.bridge_internal = false;
  EXPECT_NE(dep_cache_key(w.circuit, w.doc.network, bridge), k);
  DepOptions conflicts = base;
  conflicts.sat_conflict_limit = 1;
  EXPECT_NE(dep_cache_key(w.circuit, w.doc.network, conflicts), k);

  // Different inputs, different key.
  Workload other("TreeFlat");
  EXPECT_NE(dep_cache_key(other.circuit, other.doc.network, base), k);
  EXPECT_NE(dep_cache_key(w.circuit, other.doc.network, base), k);
}

// The key of one generated design, computed by the recipe that copied
// the three encodings into one ByteWriter before hashing it. Hashing the
// sections in place must give the same bytes to SHA-256, so every store
// written before stays readable.
TEST(DepStore, KeyOfAGeneratedDesignIsPinned) {
  Workload w("p93791");
  EXPECT_EQ(dep_cache_key(w.circuit, w.doc.network, {}),
            "6f7dca0fb353f1a7d3073a3438afb6ac7d27ea5e0ca2f317cd35615788c4437c");
  DepOptions structural;
  structural.mode = dep::DepMode::StructuralOnly;
  EXPECT_EQ(dep_cache_key(w.circuit, w.doc.network, structural),
            "3394ac83283bc8e1648ee0649f7509f488a39d98bdef5ab9512a6254dce1cb4b");
}

// The report key hashes the request texts themselves: one flipped byte
// in any of them, either daemon option, the spill budget, the format or
// the top module is another key; the thread count is not.
TEST(DepStore, AnalysisKeyCoversEveryByteAndOption) {
  Workload w("Mingle");
  std::ostringstream rsn_os, v_os;
  rsn::write_rsn(rsn_os, w.doc.network, w.doc.module_names, &w.circuit);
  netlist::verilog::write(v_os, w.circuit, w.doc.network.name());
  std::string texts[3] = {rsn_os.str(), v_os.str(),
                          "categories 2\nmodule m0 trust 1 accepts 1\n"};
  auto key = [&texts](const DepOptions& o, std::string_view format = "rsn",
                      std::string_view top = "") {
    return analysis_key(o, format, top, {texts[0], texts[1], texts[2]});
  };
  const DepOptions base;
  const std::string k = key(base);
  EXPECT_TRUE(is_store_key(k));
  EXPECT_NE(k, dep_cache_key(w.circuit, w.doc.network, base));

  std::size_t flips = 0;
  for (std::string& text : texts) {
    for (std::size_t i = 0; i < text.size(); ++i) {
      text[i] = static_cast<char>(text[i] ^ 0x01);
      EXPECT_NE(key(base), k) << "text " << (&text - texts) << " byte " << i;
      text[i] = static_cast<char>(text[i] ^ 0x01);
      ++flips;
    }
  }
  EXPECT_GT(flips, 1000u);
  EXPECT_EQ(key(base), k);
  // A byte moved from one text to the next keeps the concatenation but
  // not the key: each text is length-prefixed.
  texts[1].insert(texts[1].begin(), texts[0].back());
  texts[0].pop_back();
  EXPECT_NE(key(base), k);
  texts[0].push_back(texts[1].front());
  texts[1].erase(texts[1].begin());
  ASSERT_EQ(key(base), k);

  DepOptions structural = base;
  structural.mode = dep::DepMode::StructuralOnly;
  EXPECT_NE(key(structural), k);
  DepOptions no_ternary = base;
  no_ternary.ternary_prefilter = false;
  EXPECT_NE(key(no_ternary), k);
  DepOptions budget = base;
  budget.tile_spill_budget = 1 << 20;
  EXPECT_NE(key(budget), k);
  EXPECT_NE(key(base, "icl"), k);
  EXPECT_NE(key(base, "icl", "Top"), key(base, "icl"));
  DepOptions threads = base;
  threads.num_threads = 8;
  EXPECT_EQ(key(threads), k);
}

/// A small design with one knob per field the key's netlist and RSN
/// encodings carry. Its corners: a forward FF data input, a constant
/// fanin, a dangling mux port.
struct KeyDesign {
  std::string module_name = "instrument";
  netlist::GateType gate = netlist::GateType::And;
  netlist::ModuleId gate_module = 1;
  std::string gate_name = "g";
  bool gate_reads_const = true;  ///< its second fanin: the constant, or in0
  bool ff1_reads_inverter = true;  ///< ff1's data input: the inverter, or g
  std::string network_name = "example";
  std::string register_name = "r1";
  netlist::ModuleId register_module = 0;
  std::size_t mux_select = 1;
  bool r2_from_scan_in = true;  ///< r2's input port: scan-in, or r1
  netlist::NodeId capture = 5;
  netlist::NodeId update = 4;

  std::string key() const {
    netlist::Netlist nl;
    netlist::ModuleId core = nl.add_module("core");
    nl.add_module(module_name);
    netlist::NodeId in0 = nl.add_input("in0", core);
    netlist::NodeId one = nl.add_const(true);
    netlist::NodeId g = nl.add_gate(
        gate, {in0, gate_reads_const ? one : in0}, gate_name, gate_module);
    netlist::NodeId ff1 = nl.add_ff("ff1", core);
    netlist::NodeId ff2 = nl.add_ff("ff2", core, g);
    netlist::NodeId inv = nl.add_gate(netlist::GateType::Not, {ff2});
    nl.set_ff_input(ff1, ff1_reads_inverter ? inv : g);

    rsn::Rsn net(network_name);
    rsn::ElemId r1 = net.add_register(register_name, 2, register_module);
    rsn::ElemId r2 = net.add_register("r2", 1);
    rsn::ElemId m = net.add_mux("m", 3);
    net.connect(net.scan_in(), r1, 0);
    net.connect(r1, m, 0);
    net.connect(r2_from_scan_in ? net.scan_in() : r1, r2, 0);
    net.connect(r2, m, 1);  // port 2 stays dangling
    net.connect(m, net.scan_out(), 0);
    net.set_mux_select(m, mux_select);
    net.set_capture(r1, 0, capture);
    net.set_update(r1, 1, update);
    return dep_cache_key(nl, net, {});
  }
};

TEST(DepStore, KeyChangesWithEveryEncodedField) {
  // The key hashes the canonical netlist and RSN encodings, so a change
  // to any field they carry must reach it; rebuilding the same design
  // must not.
  const std::string k = KeyDesign{}.key();
  EXPECT_TRUE(is_store_key(k));
  EXPECT_EQ(KeyDesign{}.key(), k);

  const std::vector<std::pair<const char*, void (*)(KeyDesign&)>> changes = {
      {"gate type", [](KeyDesign& d) { d.gate = netlist::GateType::Or; }},
      {"node module", [](KeyDesign& d) { d.gate_module = 0; }},
      {"node name", [](KeyDesign& d) { d.gate_name = "h"; }},
      {"one fanin", [](KeyDesign& d) { d.gate_reads_const = false; }},
      {"FF data input", [](KeyDesign& d) { d.ff1_reads_inverter = false; }},
      {"module name", [](KeyDesign& d) { d.module_name = "trace"; }},
      {"network name", [](KeyDesign& d) { d.network_name = "other"; }},
      {"element name", [](KeyDesign& d) { d.register_name = "r0"; }},
      {"element module", [](KeyDesign& d) { d.register_module = 1; }},
      {"mux select", [](KeyDesign& d) { d.mux_select = 0; }},
      {"input port", [](KeyDesign& d) { d.r2_from_scan_in = false; }},
      {"capture attachment", [](KeyDesign& d) { d.capture = 4; }},
      {"update attachment", [](KeyDesign& d) { d.update = 3; }},
  };
  for (const auto& [what, change] : changes) {
    KeyDesign d;
    change(d);
    EXPECT_NE(d.key(), k) << what;
  }
}

TEST(DepStore, GarbagePayloadUnderValidEnvelopeIsRecomputed) {
  ArtifactStore store(test_root());
  Workload w("BasicSCB");
  DependencyAnalyzer probe(w.circuit, w.doc.network, {});
  std::string key =
      dep_cache_key(w.circuit, w.doc.network, probe.options());
  // A blob whose envelope checks out but whose payload is not a snapshot:
  // must be discarded as corrupt and the analysis recomputed — exactly
  // one miss, never a crash or a poisoned retry loop.
  store.put(key, "these bytes are not an analysis snapshot");

  DependencyAnalyzer a(w.circuit, w.doc.network, {});
  EXPECT_FALSE(run_with_store(&store, a));
  EXPECT_EQ(store.counters().corrupt, 1u);
  EXPECT_EQ(store.counters().misses, 1u);
  EXPECT_EQ(store.counters().hits, 0u);

  // The recomputed result was republished; the next run hits.
  DependencyAnalyzer b(w.circuit, w.doc.network, {});
  EXPECT_TRUE(run_with_store(&store, b));
  expect_identical(w, a, b, "after corruption");
}

TEST(DepStore, ShapeMismatchedSnapshotIsRecomputed) {
  ArtifactStore store(test_root());
  Workload small("BasicSCB");
  Workload big("TreeFlat");
  // Publish a structurally valid snapshot of the *wrong* workload under
  // the key of `big`: decode succeeds, restore() must reject the shapes.
  DependencyAnalyzer donor(small.circuit, small.doc.network, {});
  donor.run();
  ByteWriter blob;
  encode_dep_snapshot(blob, donor.snapshot());
  std::string key =
      dep_cache_key(big.circuit, big.doc.network, donor.options());
  store.put(key, blob.bytes());

  DependencyAnalyzer a(big.circuit, big.doc.network, {});
  EXPECT_FALSE(run_with_store(&store, a));
  EXPECT_EQ(store.counters().corrupt, 1u);
  DependencyAnalyzer reference(big.circuit, big.doc.network, {});
  reference.run();
  expect_identical(big, reference, a, "after shape mismatch");
}

TEST(DepStore, SnapshotCodecRejectsTruncation) {
  Workload w("BasicSCB");
  DependencyAnalyzer a(w.circuit, w.doc.network, {});
  a.run();
  ByteWriter blob;
  encode_dep_snapshot(blob, a.snapshot());
  const std::string& full = blob.bytes();
  // Step 7 keeps this sweep fast; truncation anywhere must throw.
  for (std::size_t cut = 0; cut < full.size(); cut += 7) {
    std::string prefix = full.substr(0, cut);  // keep the view's storage alive
    ByteReader r(prefix);
    EXPECT_THROW(
        {
          decode_dep_snapshot(r);
          r.expect_end();
        },
        CodecError)
        << "prefix length " << cut;
  }
}

// Warm pipeline: the dependency phase performs zero analysis work. This
// is asserted through the obs counters — on a hit, DependencyAnalyzer::
// run() never executes, so no dep.* counter (sat_calls in particular)
// is ever bumped.
TEST(DepStore, WarmPipelineRunsZeroSatCalls) {
  ArtifactStore store(test_root());
  Workload cold_w("Mingle", 7);
  Workload warm_w("Mingle", 7);  // same seed: identical inputs
  Rng spec_rng(3);
  benchgen::SpecOptions sopt;
  sopt.restrict_prob = 0.4;
  security::SecuritySpec spec = benchgen::random_spec(
      cold_w.doc.module_names.size(), sopt, spec_rng);

  PipelineOptions popt;
  popt.store = &store;

  obs::TraceSession cold_session;
  obs::TraceSession::set_active(&cold_session);
  SecureFlowTool cold_tool(cold_w.circuit, cold_w.doc.network, spec, popt);
  PipelineResult cold = cold_tool.run();
  obs::TraceSession::set_active(nullptr);
  EXPECT_EQ(cold_session.counter("store.misses").value(), 1u);
  EXPECT_EQ(cold_session.counter("dep.runs").value(), 1u);

  obs::TraceSession warm_session;
  obs::TraceSession::set_active(&warm_session);
  SecureFlowTool warm_tool(warm_w.circuit, warm_w.doc.network, spec, popt);
  PipelineResult warm = warm_tool.run();
  obs::TraceSession::set_active(nullptr);

  EXPECT_EQ(warm_session.counter("store.hits").value(), 1u);
  EXPECT_EQ(warm_session.counter("store.misses").value(), 0u);
  EXPECT_EQ(warm_session.counter("dep.runs").value(), 0u);
  EXPECT_EQ(warm_session.counter("dep.sat_calls").value(), 0u);

  // Everything downstream of the dependency phase is deterministic, so
  // the warm run's outcome matches the cold one exactly — including the
  // transformed network, compared via its canonical encoding.
  EXPECT_EQ(warm.secured, cold.secured);
  EXPECT_EQ(warm.dep_stats.sat_calls, cold.dep_stats.sat_calls);
  EXPECT_EQ(warm.dep_stats.closure_deps, cold.dep_stats.closure_deps);
  EXPECT_EQ(warm.total_changes(), cold.total_changes());
  ByteWriter cold_rsn, warm_rsn;
  encode_rsn(cold_rsn, cold_w.doc.network);
  encode_rsn(warm_rsn, warm_w.doc.network);
  EXPECT_EQ(cold_rsn.bytes(), warm_rsn.bytes());
}

}  // namespace
}  // namespace rsnsec::store
