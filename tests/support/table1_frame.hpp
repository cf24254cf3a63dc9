#pragma once

// The payloads of one serve_open benchmark design (a BASTION family at
// the Table I grid scale, its first circuit, its sparse specification)
// and the analyze frame that carries them: what a daemon request of
// Table I size looks like on the wire.

#include <cstdint>
#include <sstream>
#include <string>

#include "bench/common.hpp"
#include "benchgen/specgen.hpp"
#include "netlist/verilog.hpp"
#include "rsn/io.hpp"
#include "security/spec_io.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace rsnsec {

struct Table1Frame {
  std::string rsn, verilog, spec;
  std::string frame;  ///< {"command": "analyze", ...}, no terminator
};

/// Design `index` of the serve_open list, family `family`, for benchmark
/// seed `seed` (the instance's base seed; the spec stream is seeded
/// seed * 104729 + index).
inline Table1Frame table1_frame(const std::string& family, std::size_t index,
                                std::uint64_t seed = 1) {
  bench::SweepOptions opt;
  opt.base_seed = seed;
  bench::Instance inst = bench::make_instance(family, opt, 0);
  Rng spec_rng(seed * 104729 + index);
  security::SecuritySpec spec = benchgen::random_spec(
      inst.doc.module_names.size(), opt.spec, spec_rng);
  std::ostringstream rsn_os, v_os, spec_os;
  rsn::write_rsn(rsn_os, inst.doc.network, inst.doc.module_names,
                 &inst.circuit);
  netlist::verilog::write(v_os, inst.circuit, inst.doc.network.name());
  security::write_spec(spec_os, spec, inst.doc.module_names);
  Table1Frame f{rsn_os.str(), v_os.str(), spec_os.str(), {}};
  f.frame = "{\"command\": \"analyze\", \"id\": \"" + std::to_string(index) +
            "\", \"tenant\": \"client-0\", \"rsn\": \"" + json_escape(f.rsn) +
            "\", \"verilog\": \"" + json_escape(f.verilog) +
            "\", \"spec\": \"" + json_escape(f.spec) + "\"}";
  return f;
}

}  // namespace rsnsec
