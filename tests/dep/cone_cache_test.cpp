// Cone-isomorphism memoization: workloads with structurally repeated
// logic (MBIST's identical memory interfaces) must classify each cone
// shape once and replicate the verdicts, and the memoized run must match
// classifying every cone on its own (the per-cone oracle in tests/oracle):
// matrices, capture deps, and the classification counters.

#include <gtest/gtest.h>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "dep/analyzer.hpp"
#include "oracle/dep_oracle.hpp"

namespace rsnsec::dep {
namespace {

struct Built {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;
};

Built make_mbist() {
  Built b;
  Rng rng(0xc0deULL);
  b.doc = benchgen::generate_mbist(2, 2, 3, 0.5);
  b.circuit = benchgen::attach_random_circuit(b.doc, {}, rng);
  return b;
}

TEST(ConeCache, MemoizedRunIsBitIdenticalToUncached) {
  Built b = make_mbist();
  DependencyAnalyzer with_cache(b.circuit, b.doc.network, {});
  with_cache.run();
  const oracle::DepOracle uncached = oracle::classify_from_scratch(with_cache);

  // MBIST instantiates the same memory interface many times, so the
  // cache must collapse repeated cone shapes.
  EXPECT_GT(with_cache.stats().cone_cache_hits, 0u);
  EXPECT_TRUE(with_cache.one_cycle() == uncached.one_cycle);
  EXPECT_TRUE(with_cache.circuit_closure() == uncached.closure);
  std::size_t slot = 0;
  for (rsn::ElemId r : b.doc.network.registers()) {
    for (std::size_t f = 0; f < b.doc.network.elem(r).ffs.size(); ++f) {
      const std::vector<CaptureDep> got =
          oracle::sorted(with_cache.capture_deps(r, f));
      const std::vector<CaptureDep>& want = uncached.capture_deps[slot][f];
      ASSERT_EQ(got.size(), want.size()) << r << "[" << f << "]";
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].circuit_ff, want[k].circuit_ff);
        EXPECT_EQ(got[k].kind, want[k].kind);
      }
    }
    ++slot;
  }
  // The cache replicates the representative's simulation/SAT counters
  // per member, so they account for exactly the oracle's verdicts.
  const DepStats& s = with_cache.stats();
  EXPECT_EQ(s.sim_resolved + s.sat_functional, uncached.functional);
  EXPECT_EQ(s.ternary_resolved + s.sat_structural, uncached.structural);
  EXPECT_EQ(s.sat_unknown, uncached.unknown);
  EXPECT_EQ(s.sat_calls, s.sat_functional + s.sat_structural + s.sat_unknown);
}

}  // namespace
}  // namespace rsnsec::dep
