#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"
#include "util/word256.hpp"

namespace rsnsec::netlist {

/// 64-bit parallel-pattern simulator for a Netlist.
///
/// Each node carries a 64-bit word; bit k of every word belongs to the
/// same simulated pattern k, so one pass evaluates 64 input patterns at
/// once. Used for functional verification in tests and as the random
/// prefilter of the SAT-based dependency check (a simulated propagation
/// witness proves functional dependence without a SAT call).
class Simulator {
 public:
  explicit Simulator(const Netlist& nl);

  /// Sets the packed value of a primary input or flip-flop state.
  void set_value(NodeId id, std::uint64_t v) {
    values_[static_cast<std::size_t>(id)] = v;
  }

  /// Packed value of any node (valid after eval_comb for gates).
  std::uint64_t value(NodeId id) const {
    return values_[static_cast<std::size_t>(id)];
  }

  /// Randomizes all primary inputs and flip-flop states.
  void randomize_state(Rng& rng);

  /// Evaluates all combinational gates in node-id order, which is
  /// topological (see Netlist).
  void eval_comb();

  /// Advances one clock cycle: evaluates combinational logic, then loads
  /// every flip-flop with the value of its data input.
  void step();

 private:
  const Netlist& nl_;
  std::vector<std::uint64_t> values_;
};

/// Evaluates the combinational function of `cone` given packed values for
/// its leaves (parallel to cone.leaves). Returns the packed root value.
/// Gate values are computed in a scratch map sized to the netlist.
std::uint64_t eval_cone(const Netlist& nl, const Cone& cone,
                        const std::vector<std::uint64_t>& leaf_values,
                        std::vector<std::uint64_t>& scratch);

/// Portable 256-bit pattern block, shared with the tiled dependency
/// matrix: see util/word256.hpp. Aliased here because the simulator (and
/// every cone-classification caller) predates the move to util.
using rsnsec::Word256;

/// 256-pattern overload of eval_cone: identical semantics per lane. The
/// lane order is part of the determinism contract — callers that fill
/// leaf values from an RNG must draw lane 0 first, then 1, 2, 3, per
/// leaf, so verdicts are independent of evaluation schedule.
Word256 eval_cone(const Netlist& nl, const Cone& cone,
                  const std::vector<Word256>& leaf_values,
                  std::vector<Word256>& scratch);

}  // namespace rsnsec::netlist
