#include "lint/driver.hpp"

#include <fstream>
#include <unordered_map>

#include "netlist/verilog.hpp"
#include "rsn/icl.hpp"
#include "security/spec_io.hpp"
#include "util/thread_pool.hpp"

namespace rsnsec::lint {

namespace {

bool contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

std::ifstream open_input(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open '" + path + "'");
  return f;
}

void add_io_error(LoadedFiles& out, const std::string& path,
                  const std::string& message) {
  Diagnostic d;
  d.code = "IO001";
  d.severity = Severity::Error;
  d.location = path;
  d.message = message;
  out.diagnostics.push_back(std::move(d));
}

}  // namespace

Diagnostic classify_load_error(const std::string& path,
                               const std::string& what) {
  Diagnostic d;
  d.severity = Severity::Error;
  d.location = path;
  d.message = what;
  // The strict parsers reject some malformations outright; map their
  // failure classes onto the same stable codes the in-memory passes use,
  // so a fixture triggers one code no matter which layer catches it.
  if (contains(what, "redefined")) {
    d.code = "NET001";
    d.fix_hint = "each net may have exactly one driver";
  } else if (contains(what, "combinational loop")) {
    d.code = "NET002";
    d.fix_hint = "break the loop with a flip-flop";
  } else if (contains(what, "undriven")) {
    d.code = "NET003";
    d.fix_hint = "drive the net or remove the reference";
  } else if (contains(what, "trust category out of range") ||
             contains(what, "accepted category out of range")) {
    d.code = "SPEC001";
    d.fix_hint = "raise 'categories' or lower the offending category";
  } else if (contains(what, "accept its own trust category")) {
    d.code = "SPEC003";
    d.fix_hint = "a module may always see its own data; extend 'accepts'";
  } else if (contains(what, "spec parse error")) {
    d.code = "SPEC005";
    d.fix_hint = "fix the malformed line; see the message for its number";
  } else if (contains(what, "parse error at line")) {
    // The shared form of the .rsn, ICL and Verilog readers' syntax errors.
    d.code = "IO003";
    d.fix_hint = "fix the malformed line; see the message for its number";
  } else {
    d.code = "IO001";
  }
  return d;
}

LoadedFiles load_files(const std::vector<std::string>& paths,
                       const std::string& icl_top) {
  LoadedFiles out;
  std::vector<std::string> spec_paths;
  std::unordered_map<std::string, netlist::NodeId> circuit_nets;
  for (const std::string& path : paths) {
    try {
      if (path.ends_with(".rsn") || path.ends_with(".icl")) {
        if (out.doc) {
          add_io_error(out, path,
                       "second network file (already loaded '" +
                           out.network_source + "')");
          continue;
        }
        std::ifstream f = open_input(path);
        out.doc = path.ends_with(".icl") ? rsn::icl::load_icl(f, icl_top)
                                          : rsn::read_rsn(f);
        out.network_source = path;
      } else if (path.ends_with(".v")) {
        if (out.circuit) {
          add_io_error(out, path,
                       "second circuit file (already loaded '" +
                           out.circuit_source + "')");
          continue;
        }
        std::ifstream f = open_input(path);
        netlist::verilog::ParsedCircuit parsed = netlist::verilog::parse(f);
        out.circuit = std::move(parsed.netlist);
        out.circuit_source = path;
        for (const std::string& o : parsed.outputs) {
          auto it = parsed.nets.find(o);
          if (it != parsed.nets.end()) out.circuit_outputs.push_back(it->second);
        }
        circuit_nets = std::move(parsed.nets);
      } else if (path.ends_with(".spec")) {
        // Deferred: specs with module *names* need the network's name
        // table, which may be loaded after the spec on the command line.
        spec_paths.push_back(path);
      } else {
        add_io_error(out, path,
                     "unknown file extension (expected .rsn, .icl, .v or "
                     ".spec)");
      }
    } catch (const std::exception& e) {
      out.diagnostics.push_back(classify_load_error(path, e.what()));
    }
  }
  // Attachment resolution (needs both network and circuit, in either
  // command-line order): capture sources become live roots for the
  // dead-logic pass; unknown nets are findings, not hard failures.
  if (out.doc && out.circuit) {
    for (const rsn::Attachment& a : out.doc->attachments) {
      auto it = circuit_nets.find(a.net);
      if (it == circuit_nets.end()) {
        Diagnostic d;
        d.code = "IO002";
        d.severity = Severity::Error;
        d.location = out.network_source + ": register '" +
                     out.doc->network.elem(a.reg).name + "'";
        d.message = std::string(a.is_update ? "update" : "capture") +
                    " attachment references unknown circuit net '" + a.net +
                    "'";
        d.fix_hint = "pair the network with the circuit it was generated for";
        out.diagnostics.push_back(std::move(d));
      } else if (!a.is_update) {
        out.circuit_roots.push_back(it->second);
      }
    }
  }
  for (const std::string& path : spec_paths) {
    if (out.spec) {
      add_io_error(out, path,
                   "second spec file (already loaded '" + out.spec_source +
                       "')");
      continue;
    }
    try {
      std::ifstream f = open_input(path);
      out.spec = security::read_spec(
          f, out.doc ? out.doc->module_names : std::vector<std::string>{});
      out.spec_source = path;
    } catch (const std::exception& e) {
      out.diagnostics.push_back(classify_load_error(path, e.what()));
    }
  }
  return out;
}

std::vector<Diagnostic> lint_files(const Registry& registry,
                                   const std::vector<std::string>& paths,
                                   const std::string& icl_top,
                                   std::size_t jobs) {
  LoadedFiles loaded = load_files(paths, icl_top);
  LintInput input;
  if (loaded.circuit) {
    input.circuit = &*loaded.circuit;
    input.circuit_outputs = loaded.circuit_outputs;
    input.circuit_roots = loaded.circuit_roots;
    input.circuit_source = loaded.circuit_source;
  }
  if (loaded.doc) {
    input.network = &loaded.doc->network;
    input.network_source = loaded.network_source;
    input.module_names = &loaded.doc->module_names;
  }
  if (loaded.spec) {
    input.spec = &*loaded.spec;
    input.spec_source = loaded.spec_source;
  }
  std::vector<Diagnostic> diags = std::move(loaded.diagnostics);
  ThreadPool pool(ThreadPool::resolve_num_threads(jobs));
  std::vector<Diagnostic> found = registry.run(input, &pool);
  diags.insert(diags.end(), std::make_move_iterator(found.begin()),
               std::make_move_iterator(found.end()));
  return diags;
}

}  // namespace rsnsec::lint
