#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "rsn/io.hpp"

namespace rsnsec::rsn::icl {

/// A reference to a signal inside an ICL module: a port, register, mux
/// or instance name, optionally with a bit index ("R[3]").
struct Ref {
  std::string name;
  int bit = -1;
};

/// ScanRegister R[7:0] { ScanInSource <ref>; CaptureSource ...; }
struct ScanRegisterDecl {
  std::string name;
  std::size_t width = 1;
  Ref scan_in_source;
};

/// ScanMux M SelectedBy sel { 1'b0 : <ref>; 1'b1 : <ref>; }
struct ScanMuxDecl {
  std::string name;
  std::string select;
  std::vector<std::pair<std::uint32_t, Ref>> inputs;  ///< (select value, src)
};

/// Instance i Of Mod { InputPort SI = <ref>; }
struct InstanceDecl {
  std::string name;
  std::string of_module;
  std::map<std::string, Ref> bindings;  ///< input port -> parent ref
};

/// One ICL Module declaration.
struct ModuleDecl {
  std::string name;
  std::vector<std::string> scan_in_ports;
  /// Scan-out ports with their Source reference.
  std::vector<std::pair<std::string, Ref>> scan_out_ports;
  std::vector<ScanRegisterDecl> registers;
  std::vector<ScanMuxDecl> muxes;
  std::vector<InstanceDecl> instances;
};

/// A parsed ICL document: all module declarations by name.
struct Document {
  std::map<std::string, ModuleDecl> modules;

  /// The top module: the unique module not instantiated by any other
  /// (throws if ambiguous).
  const ModuleDecl& top() const;
};

/// Parses an IEEE 1687 ICL subset sufficient for structural scan-network
/// descriptions like the BASTION benchmark suite [19]:
///
///   Module <name> {
///     ScanInPort <id>;
///     ScanOutPort <id> { Source <ref>; }
///     ScanRegister <id>[msb:lsb] { ScanInSource <ref>; ... }
///     ScanMux <id> SelectedBy <sel> { <n>'b<bits> : <ref>; ... }
///     Instance <id> Of <module> { InputPort <port> = <ref>; ... }
///     // comments, plus Attribute/Alias/LocalParameter (skipped)
///   }
///
/// Unsupported: select wiring (muxes are treated as freely configurable,
/// as the analysis assumes), capture/update source wiring (attach the
/// circuit programmatically), mid-register taps (a "R[3]" reference is
/// resolved to R's scan-out side). Throws std::runtime_error with a
/// line-numbered message on malformed input.
Document parse(std::string_view text);
/// The same on a whole stream (read once, then parsed as above).
Document parse(std::istream& is);

/// Elaborates the document's top module (or `top_name` if given) into a
/// flat RSN. Every elaborated instance that declares scan registers
/// becomes one module/instrument of the RsnDocument; element names are
/// hierarchical ("core1.sib", "core1.wir").
RsnDocument elaborate(const Document& doc, const std::string& top_name = {});

/// Convenience: parse + elaborate.
RsnDocument load_icl(std::istream& is, const std::string& top_name = {});

}  // namespace rsnsec::rsn::icl
