#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rsn/rsn.hpp"

namespace rsnsec::rsn {

/// A pending capture/update attachment read from a network file: the
/// circuit net is referenced by name and resolved against a netlist later
/// (apply_attachments).
struct Attachment {
  ElemId reg = no_elem;
  std::size_t ff = 0;
  bool is_update = false;
  std::string net;
};

/// An RSN together with the module (instrument) names its registers refer
/// to. The BASTION benchmarks ship as ICL without circuits, so networks are
/// meaningful standalone; module names become netlist modules only when a
/// circuit is attached (src/benchgen), and capture/update attachments are
/// carried by net name until then.
struct RsnDocument {
  Rsn network{"rsn"};
  std::vector<std::string> module_names;
  std::vector<Attachment> attachments;
};

/// Most scan FFs (or mux inputs) one element of a network file may ask
/// for: the text readers (read_rsn, icl::parse) reject larger counts with
/// a line-numbered error instead of allocating them.
inline constexpr std::uint64_t kMaxElementCount = 1u << 22;

/// Serializes an RSN to the library's ICL-like plain-text format:
///
///   rsn <name>
///   module <index> <name>
///   register <name> ffs <n> module <index>
///   mux <name> inputs <k>
///   connect <from-element> <to-element> <port>
///   capture <register> <ff-index> <circuit-net-name>
///   update <register> <ff-index> <circuit-net-name>
///
/// Elements are referred to by name; "scan_in"/"scan_out" name the ports.
/// capture/update lines are emitted when `circuit` is given (net names
/// taken from the node names, falling back to "n<id>").
void write_rsn(std::ostream& os, const Rsn& network,
               const std::vector<std::string>& module_names = {},
               const netlist::Netlist* circuit = nullptr);

/// Resolves the document's pending capture/update attachments against
/// circuit nets by name and applies them to the network. Throws on
/// unknown net names.
void apply_attachments(
    RsnDocument& doc,
    const std::unordered_map<std::string, netlist::NodeId>& nets);

/// Parses the format produced by write_rsn. Fields are separated by runs
/// of spaces or tabs. Throws std::runtime_error with a line-numbered
/// message on malformed input.
RsnDocument read_rsn(std::string_view text);
/// The same on a whole stream (read once, then parsed as above).
RsnDocument read_rsn(std::istream& is);

/// Renders a one-line summary ("name: R registers, F scan FFs, M muxes").
std::string summarize(const Rsn& network);

}  // namespace rsnsec::rsn
