#include "rsn/io.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace rsnsec::rsn {

void write_rsn(std::ostream& os, const Rsn& network,
               const std::vector<std::string>& module_names,
               const netlist::Netlist* circuit) {
  os << "rsn " << network.name() << "\n";
  for (std::size_t i = 0; i < module_names.size(); ++i)
    os << "module " << i << " " << module_names[i] << "\n";
  for (ElemId r : network.registers()) {
    const Element& e = network.elem(r);
    os << "register " << e.name << " ffs " << e.ffs.size() << " module "
       << e.module << "\n";
  }
  for (ElemId m : network.muxes()) {
    const Element& e = network.elem(m);
    os << "mux " << e.name << " inputs " << e.inputs.size() << "\n";
  }
  auto emit_connections = [&](ElemId id) {
    const Element& e = network.elem(id);
    for (std::size_t p = 0; p < e.inputs.size(); ++p) {
      if (e.inputs[p] == no_elem) continue;
      os << "connect " << network.elem(e.inputs[p]).name << " " << e.name
         << " " << p << "\n";
    }
  };
  for (ElemId r : network.registers()) emit_connections(r);
  for (ElemId m : network.muxes()) emit_connections(m);
  emit_connections(network.scan_out());

  if (circuit != nullptr) {
    auto net_name = [&](netlist::NodeId id) {
      const std::string& n = circuit->node(id).name;
      return n.empty() ? "n" + std::to_string(id) : n;
    };
    for (ElemId r : network.registers()) {
      const Element& e = network.elem(r);
      for (std::size_t f = 0; f < e.ffs.size(); ++f) {
        if (e.ffs[f].capture_src != netlist::no_node)
          os << "capture " << e.name << " " << f << " "
             << net_name(e.ffs[f].capture_src) << "\n";
        if (e.ffs[f].update_dst != netlist::no_node)
          os << "update " << e.name << " " << f << " "
             << net_name(e.ffs[f].update_dst) << "\n";
      }
    }
  }
}

void apply_attachments(
    RsnDocument& doc,
    const std::unordered_map<std::string, netlist::NodeId>& nets) {
  for (const Attachment& a : doc.attachments) {
    auto it = nets.find(a.net);
    if (it == nets.end())
      throw std::runtime_error("rsn attachment: unknown circuit net '" +
                               a.net + "'");
    if (a.is_update) {
      doc.network.set_update(a.reg, a.ff, it->second);
    } else {
      doc.network.set_capture(a.reg, a.ff, it->second);
    }
  }
}

RsnDocument read_rsn(std::string_view text) {
  obs::Span span(obs::TraceSession::active(), "parse.rsn");
  RsnDocument doc;
  // Element names as views into `text`: neither an insertion nor a
  // lookup makes a string. Each name comes with a register or mux line
  // of 25 bytes or more.
  std::unordered_map<std::string_view, ElemId> by_name;
  by_name.reserve(text.size() / 25);
  int line_no = 0;
  bool named = false;

  auto fail = [&](const std::string& msg) -> std::runtime_error {
    return std::runtime_error("rsn parse error at line " +
                              std::to_string(line_no) + ": " + msg);
  };
  auto lookup = [&](std::string_view name) {
    auto it = by_name.find(name);
    if (it == by_name.end())
      throw fail("unknown element '" + std::string(name) + "'");
    return it->second;
  };
  // The Rsn API rejects impossible structure with std::logic_error.
  auto checked = [&](auto&& build) {
    try {
      return build();
    } catch (const std::logic_error& e) {
      throw fail(e.what());
    }
  };
  // Guarded numeric fields (like spec_io.cpp): a malformed or absurd
  // number in a hostile file is a line-numbered parse error, never an
  // uncaught std::sto* exception or a multi-gigabyte allocation.
  constexpr std::uint64_t kMaxIndex = 1u << 20;  // modules, ports, ffs
  auto parse_num = [&](std::string_view tok, const char* what,
                       std::uint64_t max) -> std::uint64_t {
    std::optional<std::uint64_t> v = parse_u64(tok);
    if (!v)
      throw fail(std::string("invalid ") + what + " '" + std::string(tok) +
                 "' (expected a non-negative integer)");
    if (*v > max)
      throw fail(std::string(what) + " " + std::string(tok) +
                 " out of range (max " + std::to_string(max) + ")");
    return *v;
  };

  std::vector<std::string_view> tok;
  std::string_view line;
  for (std::size_t pos = 0; next_line(text, pos, line);) {
    ++line_no;
    std::string_view sv = trim(line);
    if (sv.empty() || sv.front() == '#') continue;
    split_ws(sv, tok);
    const std::string_view kw = tok[0];
    if (kw == "rsn") {
      if (tok.size() != 2) throw fail("expected: rsn <name>");
      if (named) throw fail("duplicate rsn header");
      doc.network = Rsn(std::string(tok[1]));
      named = true;
      by_name["scan_in"] = doc.network.scan_in();
      by_name["scan_out"] = doc.network.scan_out();
    } else if (kw == "module") {
      if (tok.size() != 3) throw fail("expected: module <index> <name>");
      auto idx = static_cast<std::size_t>(
          parse_num(tok[1], "module index", kMaxIndex));
      if (idx != doc.module_names.size())
        throw fail("module indices must be consecutive from 0");
      doc.module_names.emplace_back(tok[2]);
    } else if (kw == "register") {
      if (tok.size() != 6 || tok[2] != "ffs" || tok[4] != "module")
        throw fail("expected: register <name> ffs <n> module <index>");
      if (!named) throw fail("missing rsn header");
      auto n = static_cast<std::size_t>(
          parse_num(tok[3], "scan FF count", kMaxElementCount));
      // "module -1" marks an unowned register (write_rsn emits it for
      // registers without a module).
      netlist::ModuleId mod =
          tok[5] == "-1"
              ? netlist::no_module
              : static_cast<netlist::ModuleId>(
                    parse_num(tok[5], "module index", kMaxIndex));
      if (by_name.count(tok[1])) throw fail("duplicate element name");
      by_name.emplace(tok[1], checked([&] {
        return doc.network.add_register(std::string(tok[1]), n, mod);
      }));
    } else if (kw == "mux") {
      if (tok.size() != 4 || tok[2] != "inputs")
        throw fail("expected: mux <name> inputs <k>");
      if (!named) throw fail("missing rsn header");
      auto k = static_cast<std::size_t>(
          parse_num(tok[3], "mux input count", kMaxElementCount));
      if (by_name.count(tok[1])) throw fail("duplicate element name");
      // add_mux requires >= 2 inputs, but resolution may shrink a mux to
      // one input (Rsn::remove_mux_input), and write_rsn writes it as is:
      // create it with two and drop the extra one.
      by_name.emplace(tok[1], checked([&] {
        ElemId id = doc.network.add_mux(std::string(tok[1]), k == 1 ? 2 : k);
        if (k == 1) doc.network.remove_mux_input(id, 1);
        return id;
      }));
    } else if (kw == "connect") {
      if (tok.size() != 4) throw fail("expected: connect <from> <to> <port>");
      ElemId from = lookup(tok[1]);
      ElemId to = lookup(tok[2]);
      auto port = static_cast<std::size_t>(
          parse_num(tok[3], "port index", kMaxIndex));
      checked([&] { doc.network.connect(from, to, port); });
    } else if (kw == "capture" || kw == "update") {
      if (tok.size() != 4)
        throw fail("expected: " + std::string(kw) + " <register> <ff> <net>");
      Attachment a;
      a.reg = lookup(tok[1]);
      if (doc.network.elem(a.reg).kind != ElemKind::Register)
        throw fail("'" + std::string(tok[1]) + "' is not a register");
      a.ff = static_cast<std::size_t>(
          parse_num(tok[2], "ff index", kMaxIndex));
      if (a.ff >= doc.network.elem(a.reg).ffs.size())
        throw fail("ff index out of range on '" + std::string(tok[1]) + "'");
      a.is_update = (kw == "update");
      a.net = tok[3];
      doc.attachments.push_back(std::move(a));
    } else {
      throw fail("unknown keyword '" + std::string(kw) + "'");
    }
  }
  if (!named) throw fail("empty document (no rsn header)");
  return doc;
}

RsnDocument read_rsn(std::istream& is) { return read_rsn(read_all(is)); }

std::string summarize(const Rsn& network) {
  std::ostringstream os;
  os << network.name() << ": " << network.registers().size()
     << " registers, " << network.num_scan_ffs() << " scan FFs, "
     << network.muxes().size() << " muxes";
  return os.str();
}

}  // namespace rsnsec::rsn
