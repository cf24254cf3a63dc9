#include "rsn/icl.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <optional>
#include <set>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/lexer.hpp"
#include "util/strings.hpp"

namespace rsnsec::rsn::icl {

namespace {

// --------------------------------------------------------------- parser

/// Value of a number token: a plain decimal ("7") or a sized constant
/// <width>'<base><digits> with base b, d or h ("2'b01", "16'h00ff").
std::uint32_t number_value(const Lexer& lex, const Token& t) {
  const std::string_view s = t.text;
  const std::size_t tick = s.find('\'');
  if (tick == std::string_view::npos) {
    std::optional<std::uint64_t> parsed = parse_u64(s);
    if (!parsed || *parsed > 0xffffffffULL)
      lex.fail(t.line,
               "number '" + std::string(s) + "' is not a 32-bit decimal");
    return static_cast<std::uint32_t>(*parsed);
  }
  if (s.find_first_not_of("0123456789") != tick)
    lex.fail(t.line, "invalid sized constant '" + std::string(s) + "'");
  if (tick + 1 >= s.size()) lex.fail(t.line, "truncated sized constant");
  const char base = static_cast<char>(
      std::tolower(static_cast<unsigned char>(s[tick + 1])));
  const std::string_view digits = s.substr(tick + 2);
  if (digits.empty()) lex.fail(t.line, "sized constant without digits");
  const int radix = base == 'b' ? 2 : base == 'd' ? 10 : base == 'h' ? 16 : 0;
  if (radix == 0) lex.fail(t.line, "unsupported constant base");
  // Strict: every digit must belong to the base and the value must fit,
  // or the file gets a line-numbered diagnostic.
  std::uint32_t value = 0;
  const char* end = digits.data() + digits.size();
  auto [ptr, ec] = std::from_chars(digits.data(), end, value, radix);
  if (ec == std::errc::result_out_of_range)
    lex.fail(t.line,
             "sized constant '" + std::string(s) + "' overflows 32 bits");
  if (ec != std::errc{} || ptr != end)
    lex.fail(t.line, "digit '" + std::string(1, *ptr) + "' invalid for base-" +
                         std::to_string(radix) + " constant");
  return value;
}

/// Module statements the elaborator does not need.
constexpr std::string_view kSkipped[] = {
    "Attribute", "Alias", "LocalParameter", "Parameter", "SelectPort",
    "ToSelectPort", "CaptureEnPort", "ShiftEnPort", "UpdateEnPort",
    "TCKPort", "ResetPort", "DataInPort", "DataOutPort", "LogicSignal"};

class Parser {
 public:
  explicit Parser(std::string_view text) : lex_(text, "icl") {}

  Document parse_document() {
    Document doc;
    while (lex_.peek().kind != TokKind::End) {
      expect("Module");
      ModuleDecl mod;
      mod.name = expect_ident("module name");
      expect("{");
      while (!accept("}")) parse_statement(mod);
      if (doc.modules.count(mod.name))
        fail("duplicate module '" + mod.name + "'");
      doc.modules.emplace(mod.name, std::move(mod));
    }
    return doc;
  }

 private:
  Lexer lex_;

  [[noreturn]] void fail(const std::string& msg) const {
    lex_.fail(lex_.peek().line, msg);
  }
  std::string expect_ident(const std::string& what) {
    Token t = lex_.next();
    if (t.kind != TokKind::Ident) fail("expected " + what);
    return std::string(t.text);
  }
  void expect(std::string_view s) {
    Token t = lex_.next();
    if (!t.is(s))
      fail("expected '" + std::string(s) + "', got '" + std::string(t.text) +
           "'");
  }
  bool accept(std::string_view p) {
    if (!lex_.peek().is(p)) return false;
    lex_.next();
    return true;
  }
  /// A plain decimal number (a width bound or bit index).
  std::uint32_t expect_number(const std::string& what) {
    Token t = lex_.next();
    if (t.kind != TokKind::Number ||
        t.text.find('\'') != std::string_view::npos)
      fail("expected " + what);
    return number_value(lex_, t);
  }

  Ref parse_ref() {
    Ref r;
    r.name = expect_ident("signal reference");
    if (accept("[")) {
      r.bit = static_cast<int>(expect_number("bit index"));
      expect("]");
    }
    return r;
  }

  void skip_statement() {
    // Consume until the matching ';' (skipping balanced braces).
    int depth = 0;
    for (;;) {
      Token t = lex_.next();
      if (t.kind == TokKind::End) fail("unterminated statement");
      if (t.kind == TokKind::Number) number_value(lex_, t);
      if (t.is("(*") || t.is("*)"))
        fail("unexpected '" + std::string(t.text) + "'");
      if (t.is("{")) ++depth;
      if (t.is("}")) {
        if (depth == 0) fail("unexpected '}'");
        if (--depth == 0) return;  // brace-form statement
      }
      if (t.is(";") && depth == 0) return;
    }
  }

  /// Ends a declaration: ';' or a '{ ... }' block of attributes. `known`
  /// parses the attributes it handles and returns false for the rest,
  /// which are skipped.
  template <typename Known>
  void attributes(Known&& known) {
    if (accept(";")) return;
    expect("{");
    while (!accept("}"))
      if (!known(expect_ident("attribute"))) skip_statement();
  }

  void parse_statement(ModuleDecl& mod) {
    std::string kw = expect_ident("statement keyword");
    if (kw == "ScanInPort") {
      mod.scan_in_ports.push_back(expect_ident("port name"));
      expect(";");
    } else if (kw == "ScanOutPort") {
      std::string name = expect_ident("port name");
      Ref source;
      attributes([&](const std::string& attr) {
        if (attr != "Source") return false;
        source = parse_ref();
        expect(";");
        return true;
      });
      mod.scan_out_ports.emplace_back(name, source);
    } else if (kw == "ScanRegister") {
      ScanRegisterDecl reg;
      reg.name = expect_ident("register name");
      if (accept("[")) {
        std::uint32_t msb = expect_number("msb");
        expect(":");
        std::uint32_t lsb = expect_number("lsb");
        expect("]");
        reg.width = static_cast<std::size_t>(
                        msb > lsb ? msb - lsb : lsb - msb) + 1;
        if (reg.width > kMaxElementCount)
          fail("register '" + reg.name + "' is " + std::to_string(reg.width) +
               " bits wide (max " + std::to_string(kMaxElementCount) + ")");
      }
      attributes([&](const std::string& attr) {
        if (attr != "ScanInSource") return false;  // CaptureSource, ...
        reg.scan_in_source = parse_ref();
        expect(";");
        return true;
      });
      mod.registers.push_back(std::move(reg));
    } else if (kw == "ScanMux") {
      ScanMuxDecl mux;
      mux.name = expect_ident("mux name");
      expect("SelectedBy");
      mux.select = expect_ident("select signal");
      expect("{");
      while (!accept("}")) {
        Token t = lex_.next();
        if (t.kind != TokKind::Number) fail("expected select constant");
        const std::uint32_t value = number_value(lex_, t);
        expect(":");
        Ref src = parse_ref();
        expect(";");
        mux.inputs.emplace_back(value, src);
      }
      if (mux.inputs.size() < 2) fail("ScanMux needs >= 2 inputs");
      mod.muxes.push_back(std::move(mux));
    } else if (kw == "Instance") {
      InstanceDecl inst;
      inst.name = expect_ident("instance name");
      expect("Of");
      inst.of_module = expect_ident("module name");
      attributes([&](const std::string& attr) {
        if (attr != "InputPort") return false;
        std::string port = expect_ident("port name");
        expect("=");
        inst.bindings[port] = parse_ref();
        expect(";");
        return true;
      });
      mod.instances.push_back(std::move(inst));
    } else if (std::find(std::begin(kSkipped), std::end(kSkipped), kw) !=
               std::end(kSkipped)) {
      skip_statement();
    } else {
      fail("unsupported statement '" + kw + "'");
    }
  }
};

// ----------------------------------------------------------- elaborator

class Elaborator {
 public:
  Elaborator(const Document& doc, RsnDocument& out)
      : doc_(doc), out_(out) {}

  /// Elaborates `mod` under hierarchical `prefix`; `input` is the element
  /// feeding the module's scan-in port. Returns the element producing the
  /// module's scan-out.
  ElemId run(const ModuleDecl& mod, const std::string& prefix,
             ElemId input) {
    if (std::find(active_.begin(), active_.end(), &mod) != active_.end())
      throw std::runtime_error("icl elaborate: module '" + mod.name +
                               "' instantiates itself");
    if (active_.size() == kMaxNesting)
      throw std::runtime_error("icl elaborate: instances nested deeper than " +
                               std::to_string(kMaxNesting));
    active_.push_back(&mod);
    if (mod.scan_in_ports.size() != 1 || mod.scan_out_ports.size() != 1)
      throw std::runtime_error(
          "icl elaborate: module '" + mod.name +
          "' must have exactly one ScanInPort and one ScanOutPort");

    std::map<std::string, ElemId> producer;
    producer[mod.scan_in_ports.front()] = input;

    // Instrument id: one per elaborated instance that owns registers.
    netlist::ModuleId instrument = netlist::no_module;
    if (!mod.registers.empty()) {
      out_.module_names.push_back(prefix.empty() ? mod.name : prefix);
      instrument =
          static_cast<netlist::ModuleId>(out_.module_names.size() - 1);
    }

    // Pass 1: create local elements.
    for (const ScanRegisterDecl& r : mod.registers) {
      producer[r.name] = out_.network.add_register(
          prefix.empty() ? r.name : prefix + "." + r.name, r.width,
          instrument);
    }
    for (const ScanMuxDecl& m : mod.muxes) {
      producer[m.name] = out_.network.add_mux(
          prefix.empty() ? m.name : prefix + "." + m.name,
          m.inputs.size());
    }

    // Pass 2: elaborate instances; bindings may reference other
    // instances, so iterate to a fixed point.
    std::vector<const InstanceDecl*> pending;
    for (const InstanceDecl& i : mod.instances) pending.push_back(&i);
    while (!pending.empty()) {
      bool progress = false;
      for (auto it = pending.begin(); it != pending.end();) {
        const InstanceDecl& inst = **it;
        auto child_it = doc_.modules.find(inst.of_module);
        if (child_it == doc_.modules.end())
          throw std::runtime_error("icl elaborate: unknown module '" +
                                   inst.of_module + "'");
        const ModuleDecl& child = child_it->second;
        if (child.scan_in_ports.size() != 1)
          throw std::runtime_error("icl elaborate: module '" + child.name +
                                   "' must have exactly one ScanInPort");
        const std::string& port = child.scan_in_ports.front();
        auto bind = inst.bindings.find(port);
        if (bind == inst.bindings.end())
          throw std::runtime_error("icl elaborate: instance '" + inst.name +
                                   "' does not bind port '" + port + "'");
        auto src = producer.find(bind->second.name);
        if (src == producer.end()) {
          ++it;  // producer not elaborated yet; retry next round
          continue;
        }
        std::string child_prefix =
            prefix.empty() ? inst.name : prefix + "." + inst.name;
        producer[inst.name] = run(child, child_prefix, src->second);
        it = pending.erase(it);
        progress = true;
      }
      if (!progress)
        throw std::runtime_error(
            "icl elaborate: unresolvable instance bindings in module '" +
            mod.name + "' (cycle or unknown reference)");
    }

    // Pass 3: connect local elements.
    auto resolve = [&](const Ref& ref, const std::string& what) {
      auto it = producer.find(ref.name);
      if (it == producer.end())
        throw std::runtime_error("icl elaborate: unknown reference '" +
                                 ref.name + "' in " + what);
      return it->second;
    };
    for (const ScanRegisterDecl& r : mod.registers) {
      if (r.scan_in_source.name.empty())
        throw std::runtime_error("icl elaborate: register '" + r.name +
                                 "' has no ScanInSource");
      out_.network.connect(resolve(r.scan_in_source, "register " + r.name),
                           producer[r.name], 0);
    }
    for (const ScanMuxDecl& m : mod.muxes) {
      // Port order follows ascending select values.
      auto inputs = m.inputs;
      std::sort(inputs.begin(), inputs.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (std::size_t p = 0; p < inputs.size(); ++p) {
        out_.network.connect(resolve(inputs[p].second, "mux " + m.name),
                             producer[m.name], p);
      }
    }
    ElemId scan_out = resolve(mod.scan_out_ports.front().second,
                              "scan-out of module " + mod.name);
    active_.pop_back();
    return scan_out;
  }

 private:
  /// Bounds the recursion, so hostile hierarchies cannot exhaust the stack.
  static constexpr std::size_t kMaxNesting = 1000;

  const Document& doc_;
  RsnDocument& out_;
  std::vector<const ModuleDecl*> active_;  ///< modules being elaborated
};

}  // namespace

const ModuleDecl& Document::top() const {
  std::set<std::string> instantiated;
  for (const auto& [name, mod] : modules)
    for (const InstanceDecl& i : mod.instances)
      instantiated.insert(i.of_module);
  const ModuleDecl* top = nullptr;
  for (const auto& [name, mod] : modules) {
    if (instantiated.count(name)) continue;
    if (top != nullptr)
      throw std::runtime_error(
          "icl: ambiguous top module ('" + top->name + "' and '" + name +
          "'); pass a top name explicitly");
    top = &mod;
  }
  if (top == nullptr)
    throw std::runtime_error("icl: no top module (instantiation cycle?)");
  return *top;
}

Document parse(std::string_view text) {
  obs::Span span(obs::TraceSession::active(), "parse.icl");
  return Parser(text).parse_document();
}

Document parse(std::istream& is) { return parse(read_all(is)); }

RsnDocument elaborate(const Document& doc, const std::string& top_name) {
  const ModuleDecl* top = nullptr;
  if (top_name.empty()) {
    top = &doc.top();
  } else {
    auto it = doc.modules.find(top_name);
    if (it == doc.modules.end())
      throw std::runtime_error("icl: unknown top module '" + top_name + "'");
    top = &it->second;
  }
  RsnDocument out;
  out.network = Rsn(top->name);
  Elaborator el(doc, out);
  ElemId result = el.run(*top, "", out.network.scan_in());
  out.network.connect(result, out.network.scan_out(), 0);
  return out;
}

RsnDocument load_icl(std::istream& is, const std::string& top_name) {
  Document doc = parse(is);
  return elaborate(doc, top_name);
}

}  // namespace rsnsec::rsn::icl
