#include "rsn/icl.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>

#include "store/codec.hpp"

namespace rsnsec::rsn::icl {
namespace {

/// A SIB-based hierarchical network in the ICL subset: two instrument
/// wrappers behind segment-insertion muxes, plus a WIR-style register.
const char* kSibNetwork = R"(
// A 1687-style network with two SIB-gated instruments.
Module Instrument {
  ScanInPort SI;
  ScanOutPort SO { Source DR; }
  ScanRegister DR[7:0] {
    ScanInSource SI;
    ResetValue 8'b00000000;
  }
}

Module Sib {
  ScanInPort SI;
  ScanOutPort SO { Source mux; }
  ScanRegister S {
    ScanInSource SI;
    Attribute keep = "true";
  }
  Instance inst Of Instrument { InputPort SI = S; }
  ScanMux mux SelectedBy S {
    1'b0 : S;
    1'b1 : inst;
  }
}

Module Top {
  ScanInPort SI;
  ScanOutPort SO { Source wir; }
  Instance sib1 Of Sib { InputPort SI = SI; }
  Instance sib2 Of Sib { InputPort SI = sib1; }
  ScanRegister wir[3:0] { ScanInSource sib2; }
}
)";

TEST(IclParser, ParsesModules) {
  std::istringstream is(kSibNetwork);
  Document doc = parse(is);
  ASSERT_EQ(doc.modules.size(), 3u);
  const ModuleDecl& instr = doc.modules.at("Instrument");
  EXPECT_EQ(instr.registers.size(), 1u);
  EXPECT_EQ(instr.registers[0].width, 8u);
  EXPECT_EQ(instr.registers[0].scan_in_source.name, "SI");
  const ModuleDecl& sib = doc.modules.at("Sib");
  ASSERT_EQ(sib.muxes.size(), 1u);
  EXPECT_EQ(sib.muxes[0].inputs.size(), 2u);
  EXPECT_EQ(sib.muxes[0].select, "S");
  EXPECT_EQ(sib.instances.size(), 1u);
  EXPECT_EQ(doc.top().name, "Top");
}

TEST(IclParser, SkipsUnknownAttributesAndComments) {
  std::istringstream is(R"(
Module M {
  ScanInPort SI;   /* block
                      comment */
  Attribute vendor = "acme corp";
  SelectPort sel;
  ScanOutPort SO { Source R; }
  ScanRegister R { ScanInSource SI; CaptureSource foo; }
}
)");
  Document doc = parse(is);
  EXPECT_EQ(doc.modules.at("M").registers.size(), 1u);
}

TEST(IclParser, ErrorsCarryLineNumbers) {
  std::istringstream is("Module M {\n  Bogus x;\n}");
  try {
    parse(is);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("Bogus"), std::string::npos);
  }
}

TEST(IclParser, RejectsSingleInputMux) {
  std::istringstream is(R"(
Module M {
  ScanInPort SI;
  ScanOutPort SO { Source m; }
  ScanMux m SelectedBy SI { 1'b0 : SI; }
}
)");
  EXPECT_THROW(parse(is), std::runtime_error);
}

TEST(IclParser, RejectsRegistersWiderThanTheElementLimit) {
  // A width above rsn::kMaxElementCount would ask Rsn::add_register for
  // billions of scan flip-flops; the parser stops at the declaration.
  auto module_with = [](const std::string& range) {
    return "Module M {\n  ScanInPort SI;\n  ScanOutPort SO { Source R; }\n"
           "  ScanRegister R[" +
           range + "] { ScanInSource SI; }\n}\n";
  };
  std::istringstream at_limit(module_with("4194303:0"));
  EXPECT_EQ(parse(at_limit).modules.at("M").registers[0].width,
            kMaxElementCount);
  for (const char* range : {"4194304:0", "0:4294967295", "4294967295:0"}) {
    std::istringstream is(module_with(range));
    try {
      parse(is);
      FAIL() << range << ": expected a parse error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("icl parse error at line 4"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(IclParser, AcceptsDollarAndEscapedIdentifiers) {
  std::istringstream is(R"(
Module M$1 {
  ScanInPort \si[0] ;
  ScanOutPort SO { Source r$x; }
  ScanRegister r$x { ScanInSource \si[0] ; }
}
)");
  RsnDocument doc = load_icl(is);
  ASSERT_EQ(doc.network.registers().size(), 1u);
  EXPECT_EQ(doc.network.elem(doc.network.registers()[0]).name, "r$x");
  EXPECT_EQ(doc.module_names, std::vector<std::string>{"M$1"});
}

TEST(IclParser, SizedConstantErrorsCarryLineNumbers) {
  for (const char* constant :
       {"2'b02", "1'", "1'q0", "1'b", "64'hffffffffff", "8a'b0"}) {
    std::istringstream is(std::string("Module M {\n  ScanInPort SI;\n"
                                      "  ScanMux m SelectedBy SI {\n    ") +
                          constant + " : SI;\n    1'b1 : SI;\n  }\n}\n");
    try {
      parse(is);
      FAIL() << constant << ": expected a parse error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("icl parse error at line 4"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(IclElaborate, RejectsInstantiationCycles) {
  std::istringstream is(R"(
Module A { ScanInPort SI; ScanOutPort SO { Source b; }
  Instance b Of B { InputPort SI = SI; } }
Module B { ScanInPort SI; ScanOutPort SO { Source a; }
  Instance a Of A { InputPort SI = SI; } }
Module Top { ScanInPort SI; ScanOutPort SO { Source a; }
  Instance a Of A { InputPort SI = SI; } }
)");
  EXPECT_THROW(load_icl(is), std::runtime_error);
}

TEST(IclElaborate, FlattensHierarchy) {
  std::istringstream is(kSibNetwork);
  RsnDocument doc = load_icl(is);
  // Registers: 2 x (sib S + instrument DR) + wir = 5; muxes: 2.
  EXPECT_EQ(doc.network.registers().size(), 5u);
  EXPECT_EQ(doc.network.muxes().size(), 2u);
  EXPECT_EQ(doc.network.num_scan_ffs(), 2u * (1 + 8) + 4u);
  std::string err;
  EXPECT_TRUE(doc.network.validate(&err)) << err;
  // One instrument per register-owning instance: sib1, sib1.inst, sib2,
  // sib2.inst, Top.
  EXPECT_EQ(doc.module_names.size(), 5u);
  EXPECT_NE(std::find(doc.module_names.begin(), doc.module_names.end(),
                      "sib1.inst"),
            doc.module_names.end());
}

TEST(IclElaborate, EveryRegisterAccessible) {
  std::istringstream is(kSibNetwork);
  RsnDocument doc = load_icl(is);
  const ScanAccess access = doc.network.scan_access();
  for (ElemId r : doc.network.registers())
    EXPECT_TRUE(access.accessible(r)) << doc.network.elem(r).name;
}

TEST(IclElaborate, SibBypassSemantics) {
  std::istringstream is(kSibNetwork);
  RsnDocument doc = load_icl(is);
  // With all muxes at select 0 (bypass), the active path skips both DRs:
  // chain = sib1.S, sib2.S, wir = 1 + 1 + 4 FFs.
  for (ElemId m : doc.network.muxes()) doc.network.set_mux_select(m, 0);
  std::size_t ffs = 0;
  for (ElemId e : doc.network.active_path())
    if (doc.network.elem(e).kind == ElemKind::Register)
      ffs += doc.network.elem(e).ffs.size();
  EXPECT_EQ(ffs, 6u);
  // Selecting both SIBs includes the 8-bit DRs.
  for (ElemId m : doc.network.muxes()) doc.network.set_mux_select(m, 1);
  ffs = 0;
  for (ElemId e : doc.network.active_path())
    if (doc.network.elem(e).kind == ElemKind::Register)
      ffs += doc.network.elem(e).ffs.size();
  EXPECT_EQ(ffs, 22u);
}

TEST(IclElaborate, ExplicitTopSelection) {
  std::istringstream is(kSibNetwork);
  Document doc = parse(is);
  RsnDocument sib = elaborate(doc, "Sib");
  EXPECT_EQ(sib.network.registers().size(), 2u);
  EXPECT_THROW(elaborate(doc, "NoSuch"), std::runtime_error);
}

TEST(IclElaborate, ForwardInstanceReferences) {
  // sibA is bound to sibB's output although sibB is declared later.
  std::istringstream is(R"(
Module Leaf {
  ScanInPort SI;
  ScanOutPort SO { Source R; }
  ScanRegister R { ScanInSource SI; }
}
Module Top {
  ScanInPort SI;
  ScanOutPort SO { Source a; }
  Instance a Of Leaf { InputPort SI = b; }
  Instance b Of Leaf { InputPort SI = SI; }
}
)");
  RsnDocument doc = load_icl(is);
  EXPECT_EQ(doc.network.registers().size(), 2u);
  std::string err;
  EXPECT_TRUE(doc.network.validate(&err)) << err;
}

TEST(IclElaborate, DetectsUnresolvableBindings) {
  std::istringstream is(R"(
Module Leaf {
  ScanInPort SI;
  ScanOutPort SO { Source R; }
  ScanRegister R { ScanInSource SI; }
}
Module Top {
  ScanInPort SI;
  ScanOutPort SO { Source a; }
  Instance a Of Leaf { InputPort SI = b; }
  Instance b Of Leaf { InputPort SI = a; }
}
)");
  EXPECT_THROW(load_icl(is), std::runtime_error);
}

TEST(IclElaborate, MuxPortOrderFollowsSelectValues) {
  std::istringstream is(R"(
Module M {
  ScanInPort SI;
  ScanOutPort SO { Source m; }
  ScanRegister A { ScanInSource SI; }
  ScanRegister B { ScanInSource SI; }
  ScanMux m SelectedBy A {
    1'b1 : B;
    1'b0 : A;
  }
}
)");
  RsnDocument doc = load_icl(is);
  ElemId m = doc.network.muxes()[0];
  // Port 0 = select value 0 = A, port 1 = B, regardless of source order.
  const Element& mux = doc.network.elem(m);
  EXPECT_EQ(doc.network.elem(mux.inputs[0]).name, "A");
  EXPECT_EQ(doc.network.elem(mux.inputs[1]).name, "B");
}

TEST(IclElaborate, SocDemoMatchesPinnedDigest) {
  // The shipped example elaborates to the same network, element for
  // element, and the same instrument table.
  std::ifstream f(RSNSEC_SOURCE_DIR "/examples/data/soc_demo.icl");
  ASSERT_TRUE(f) << "cannot open soc_demo.icl";
  RsnDocument doc = load_icl(f);
  store::ByteWriter w;
  store::encode_rsn(w, doc.network);
  for (const std::string& name : doc.module_names) w.str(name);
  const std::uint64_t got = store::fnv1a64(w.bytes());
  EXPECT_EQ(got, 0xb5684a313240767bull) << "digest 0x" << std::hex << got;
}

}  // namespace
}  // namespace rsnsec::rsn::icl
