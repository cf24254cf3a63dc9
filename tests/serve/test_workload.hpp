#pragma once

// One small generated design (a BASTION family, or MBIST_2_4_4)
// serialized to the inline payload strings the serve protocol carries —
// shared by the service- and server-level tests (the same shape `rsnsec
// bench serve` replays).

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/specgen.hpp"
#include "netlist/verilog.hpp"
#include "rsn/io.hpp"
#include "security/spec_io.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace rsnsec::serve {

struct TestWorkload {
  std::string rsn_text;
  std::string verilog_text;
  std::string spec_text;

  explicit TestWorkload(const std::string& family = "Mingle",
                        std::uint64_t seed = 11, double target_ffs = 60) {
    Rng rng(seed);
    rsn::RsnDocument doc;
    if (family == "MBIST_2_4_4") {
      doc = benchgen::generate_mbist(2, 4, 4, 1.0);
    } else {
      const benchgen::BenchmarkProfile& p = benchgen::bastion_profile(family);
      double scale =
          std::min(1.0, target_ffs / static_cast<double>(p.scan_ffs));
      doc = benchgen::generate_bastion(p, scale, rng);
    }
    netlist::Netlist circuit =
        benchgen::attach_random_circuit(doc, {}, rng);
    benchgen::SpecOptions spec_opt;
    security::SecuritySpec spec =
        benchgen::random_spec(doc.module_names.size(), spec_opt, rng);
    std::ostringstream rs, vs, ss;
    rsn::write_rsn(rs, doc.network, doc.module_names, &circuit);
    rsn_text = rs.str();
    netlist::verilog::write(vs, circuit, doc.network.name());
    verilog_text = vs.str();
    security::write_spec(ss, spec, doc.module_names);
    spec_text = ss.str();
  }

  Request request(Command command) const {
    Request req;
    req.command = command;
    req.rsn = rsn_text;
    req.verilog = verilog_text;
    req.spec = spec_text;
    return req;
  }
};

}  // namespace rsnsec::serve
