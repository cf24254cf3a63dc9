// Truncation and single-byte corruption sweeps over every store decoder
// and every text reader (.rsn, structural Verilog, .spec, ICL), run under
// an allocation budget: this binary's global operator new refuses any
// single request larger than kAllocMultiple times the blob or text being
// read. A corrupted count that asks for gigabytes therefore fails here on
// every host, instead of passing or throwing std::bad_alloc depending on
// the host's overcommit policy. The override also counts the bytes
// requested, so a test can bound what one call allocates in total.
//
// Separate binary because the operator new override applies to the whole
// executable.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/specgen.hpp"
#include "core/analyze.hpp"
#include "dep/analyzer.hpp"
#include "netlist/verilog.hpp"
#include "rsn/icl.hpp"
#include "rsn/io.hpp"
#include "security/spec_io.hpp"
#include "serve/protocol.hpp"
#include "store/codec.hpp"
#include "store/dep_cache.hpp"
#include "support/table1_frame.hpp"
#include "util/strings.hpp"

namespace {

/// Largest single allocation allowed while armed (0 = unlimited), and the
/// size of the last request refused.
std::atomic<std::size_t> g_alloc_cap{0};
std::atomic<std::size_t> g_refused{0};
/// Bytes requested so far, for the allocation-volume checks.
std::atomic<std::size_t> g_allocated{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocated.fetch_add(n, std::memory_order_relaxed);
  const std::size_t cap = g_alloc_cap.load(std::memory_order_relaxed);
  if (cap != 0 && n > cap) {
    g_refused.store(n, std::memory_order_relaxed);
    throw std::bad_alloc();
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace rsnsec::store {
namespace {

/// Budget per decoded byte. The largest legitimate expansion is a text
/// reader's vector of ~100-byte RSN elements or netlist nodes, grown
/// geometrically from a few input bytes each; a corrupted count is
/// either rejected by ByteReader::count or exceeds this by orders of
/// magnitude.
constexpr std::size_t kAllocMultiple = 64;

enum class Outcome { Decoded, Rejected, OverBudget };

/// Arms the allocation cap for the lifetime of the guard.
struct AllocCap {
  explicit AllocCap(std::size_t cap) {
    g_refused.store(0, std::memory_order_relaxed);
    g_alloc_cap.store(cap, std::memory_order_relaxed);
  }
  ~AllocCap() { g_alloc_cap.store(0, std::memory_order_relaxed); }
};

/// Runs `decode` on `blob` (it must consume the blob exactly) with every
/// single allocation capped at kAllocMultiple * blob.size().
template <typename Decode>
Outcome decode_capped(const std::string& blob, Decode&& decode) {
  AllocCap cap(kAllocMultiple * std::max<std::size_t>(blob.size(), 1));
  try {
    ByteReader r(blob);
    decode(r);
    r.expect_end();
  } catch (const CodecError&) {
    return Outcome::Rejected;
  } catch (const std::bad_alloc&) {
    return Outcome::OverBudget;
  }
  return Outcome::Decoded;
}

/// Flips every byte of `blob` with three masks. No mutation may crash,
/// throw anything but CodecError, or exceed the allocation budget.
template <typename Decode>
void sweep_single_byte_corruption(const std::string& blob, Decode&& decode) {
  ASSERT_EQ(decode_capped(blob, decode), Outcome::Decoded)
      << "the uncorrupted blob must decode within the budget";
  for (std::size_t i = 0; i < blob.size(); ++i) {
    for (unsigned char delta : {0x01, 0x80, 0xff}) {
      std::string mutated = blob;
      mutated[i] = static_cast<char>(
          static_cast<unsigned char>(mutated[i]) ^ delta);
      EXPECT_NE(decode_capped(mutated, decode), Outcome::OverBudget)
          << "byte " << i << " ^ " << static_cast<int>(delta) << " asked for "
          << g_refused.load() << " bytes from a " << blob.size()
          << "-byte blob";
    }
  }
}

/// Every proper prefix of `blob` must be rejected within the budget.
template <typename Decode>
void sweep_truncation(const std::string& blob, Decode&& decode) {
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    EXPECT_EQ(decode_capped(blob.substr(0, cut), decode), Outcome::Rejected)
        << "prefix length " << cut;
  }
}

/// Snapshot of a small exact analysis — the Fig. 3 bridging constellation
/// (two internal flip-flops between three scan-attached ones, one input
/// reaching them only structurally) — in the requested representation.
std::string snapshot_blob(dep::PartitionMode mode) {
  using netlist::GateType;
  netlist::Netlist nl;
  netlist::NodeId f5 = nl.add_ff("F5");
  netlist::NodeId f6 = nl.add_ff("F6");
  netlist::NodeId if1 = nl.add_ff("IF1");
  netlist::NodeId if2 = nl.add_ff("IF2");
  netlist::NodeId f9 = nl.add_ff("F9");
  nl.set_ff_input(f5, f5);
  nl.set_ff_input(f6, f6);
  netlist::NodeId dead = nl.add_gate(GateType::Xor, {f6, f6});
  nl.set_ff_input(if1, nl.add_gate(GateType::Or, {f5, dead}));
  nl.set_ff_input(if2, if1);
  nl.set_ff_input(f9, if2);
  rsn::Rsn net("fig3");
  rsn::ElemId reg = net.add_register("r", 3, 0);
  net.connect(net.scan_in(), reg, 0);
  net.connect(reg, net.scan_out(), 0);
  net.set_capture(reg, 0, f5);
  net.set_capture(reg, 1, f6);
  net.set_capture(reg, 2, f9);

  dep::DepOptions opt;
  opt.partition = mode;
  dep::DependencyAnalyzer a(nl, net, opt);
  a.run();
  ByteWriter w;
  encode_dep_snapshot(w, a.snapshot());
  return w.take();
}

void decode_snapshot_only(ByteReader& r) { decode_dep_snapshot(r); }

TEST(DepMatrixCodec, SingleByteCorruptionNeverCrashes) {
  DepMatrix m(70);
  for (std::size_t i = 0; i < 70; ++i) {
    m.upgrade(i, (i * 7 + 3) % 70, DepKind::Structural);
    if (i % 3 == 0) m.upgrade((i * 5) % 70, i, DepKind::Path);
  }
  ByteWriter w;
  encode_dep_matrix(w, m);
  sweep_single_byte_corruption(w.bytes(),
                               [](ByteReader& r) { decode_dep_matrix(r); });
}

// The tiled matrix decoder is swept inside the tiled snapshot: its
// dimension is bounded by the snapshot's FF bit vector, not by the tiles
// that follow it.
TEST(DepSnapshotCodec, DenseSingleByteCorruptionNeverCrashes) {
  sweep_single_byte_corruption(snapshot_blob(dep::PartitionMode::Dense),
                               decode_snapshot_only);
}

TEST(DepSnapshotCodec, TiledSingleByteCorruptionNeverCrashes) {
  sweep_single_byte_corruption(snapshot_blob(dep::PartitionMode::Tiled),
                               decode_snapshot_only);
}

TEST(DepSnapshotCodec, EveryTruncationThrowsCodecError) {
  sweep_truncation(snapshot_blob(dep::PartitionMode::Dense),
                   decode_snapshot_only);
  sweep_truncation(snapshot_blob(dep::PartitionMode::Tiled),
                   decode_snapshot_only);
}

/// The report artifact of an analyze of a small generated design, with
/// two static-detail lines added so the sweeps reach the string list.
std::string report_blob() {
  Rng rng(3);
  rsn::RsnDocument doc = benchgen::generate_bastion(
      benchgen::bastion_profile("Mingle"), 0.02, rng);
  netlist::Netlist circuit = benchgen::attach_random_circuit(doc, {}, rng);
  security::SecuritySpec spec =
      benchgen::random_spec(doc.module_names.size(), {}, rng);
  AnalyzeResult r = analyze(Workload{doc, circuit, spec}, {});
  r.static_details.push_back("insecure logic: m1 -> m0 through g17");
  r.static_details.push_back("intra-segment flow in r3");
  return encode_analyze_result(r);
}

/// decode_analyze_result takes the whole payload; read it out of `r`.
void decode_report_only(ByteReader& r) {
  std::string payload(r.remaining(), '\0');
  r.raw(payload.data(), payload.size());
  decode_analyze_result(payload);
}

TEST(AnalyzeReportCodec, RoundTripsAndEveryTruncationThrowsCodecError) {
  const std::string blob = report_blob();
  const AnalyzeResult back = decode_analyze_result(blob);
  EXPECT_EQ(back.static_details.size(), 2u);
  EXPECT_EQ(encode_analyze_result(back), blob);
  sweep_truncation(blob, decode_report_only);
}

// The seal makes every single-byte flip a CodecError, so a damaged report
// is never served.
TEST(AnalyzeReportCodec, EverySingleByteFlipIsRejected) {
  const std::string blob = report_blob();
  for (std::size_t i = 0; i < blob.size(); ++i) {
    for (unsigned char delta : {0x01, 0x80, 0xff}) {
      std::string mutated = blob;
      mutated[i] = static_cast<char>(
          static_cast<unsigned char>(mutated[i]) ^ delta);
      EXPECT_EQ(decode_capped(mutated, decode_report_only), Outcome::Rejected)
          << "byte " << i << " ^ " << static_cast<int>(delta);
    }
  }
}

// A forged report, its seal recomputed over a flipped body, reaches the
// field decoders: every count and length stays bounded by the payload.
TEST(AnalyzeReportCodec, ResealedCorruptionNeverCrashes) {
  const std::string blob = report_blob();
  const std::string body = blob.substr(0, blob.size() - 8);
  for (std::size_t i = 0; i < body.size(); ++i) {
    for (unsigned char delta : {0x01, 0x80, 0xff}) {
      std::string mutated = body;
      mutated[i] = static_cast<char>(
          static_cast<unsigned char>(mutated[i]) ^ delta);
      ByteWriter w;
      w.raw(mutated.data(), mutated.size());
      w.fixed64(fnv1a64(mutated));
      EXPECT_NE(decode_capped(w.bytes(), decode_report_only),
                Outcome::OverBudget)
          << "byte " << i << " ^ " << static_cast<int>(delta) << " asked for "
          << g_refused.load() << " bytes";
    }
  }
}

TEST(AllocationBudget, RefusesOversizedRequests) {
  // The hook itself: an armed cap refuses a larger request and admits a
  // smaller one, so a clean sweep is not vacuous.
  const std::string blob(16, 'x');
  EXPECT_EQ(decode_capped(blob,
                          [](ByteReader& r) {
                            std::vector<char> big(kAllocMultiple * 16 + 1);
                            r.raw(big.data(), 16);
                          }),
            Outcome::OverBudget);
  EXPECT_EQ(decode_capped(blob,
                          [](ByteReader& r) {
                            std::vector<char> fits(kAllocMultiple * 16);
                            r.raw(fits.data(), 16);
                          }),
            Outcome::Decoded);
}

// ---------------------------------------------------------------------------
// Text readers. Each input must parse or throw std::runtime_error (any
// other exception fails the test) within the same per-byte budget; tiny
// inputs get kMinTextBytes' worth so error messages fit.

constexpr std::size_t kMinTextBytes = 64;

enum class TextOutcome { Parsed, Rejected, OverBudget };

using TextReader = void (*)(std::istream&, const std::vector<std::string>&);

TextOutcome read_capped(const std::string& text, TextReader read,
                        const std::vector<std::string>& module_names) {
  AllocCap cap(kAllocMultiple * std::max(text.size(), kMinTextBytes));
  try {
    std::istringstream is(text);
    read(is, module_names);
  } catch (const std::bad_alloc&) {
    return TextOutcome::OverBudget;
  } catch (const std::runtime_error&) {
    return TextOutcome::Rejected;
  }
  return TextOutcome::Parsed;
}

void read_rsn_text(std::istream& is, const std::vector<std::string>&) {
  rsn::read_rsn(is);
}
void read_verilog_text(std::istream& is, const std::vector<std::string>&) {
  netlist::verilog::parse(is);
}
void read_spec_text(std::istream& is, const std::vector<std::string>& names) {
  security::read_spec(is, names);
}
void read_icl_text(std::istream& is, const std::vector<std::string>&) {
  rsn::icl::load_icl(is);
}

/// One reader's input: its text and the module names a spec resolves.
struct TextCase {
  const char* what;
  TextReader read;
  std::string text;
  std::vector<std::string> module_names;
};

/// A generated small-BASTION .rsn/.v/.spec triple and the shipped ICL
/// example.
std::vector<TextCase> generated_texts() {
  Rng rng(2);
  rsn::RsnDocument doc = benchgen::generate_bastion(
      benchgen::bastion_profile("BasicSCB"), 0.01, rng);
  netlist::Netlist circuit = benchgen::attach_random_circuit(doc, {}, rng);
  security::SecuritySpec spec =
      benchgen::random_spec(doc.module_names.size(), {}, rng);
  std::ostringstream rsn_os, v_os, spec_os;
  rsn::write_rsn(rsn_os, doc.network, doc.module_names, &circuit);
  netlist::verilog::write(v_os, circuit, doc.network.name());
  security::write_spec(spec_os, spec, doc.module_names);
  std::ifstream icl(RSNSEC_SOURCE_DIR "/examples/data/soc_demo.icl");
  std::ostringstream icl_os;
  icl_os << icl.rdbuf();
  return {{"rsn", read_rsn_text, rsn_os.str(), {}},
          {"verilog", read_verilog_text, v_os.str(), {}},
          {"spec", read_spec_text, spec_os.str(), doc.module_names},
          {"icl", read_icl_text, icl_os.str(), {}}};
}

TEST(TextReaders, GeneratedInputsParseWithinBudget) {
  for (const TextCase& c : generated_texts()) {
    ASSERT_GT(c.text.size(), 100u) << c.what;
    EXPECT_EQ(read_capped(c.text, c.read, c.module_names),
              TextOutcome::Parsed)
        << c.what;
  }
}

TEST(TextReaders, EveryTruncationParsesOrThrows) {
  for (const TextCase& c : generated_texts()) {
    for (std::size_t cut = 0; cut < c.text.size(); ++cut) {
      EXPECT_NE(read_capped(c.text.substr(0, cut), c.read, c.module_names),
                TextOutcome::OverBudget)
          << c.what << " prefix length " << cut << " asked for "
          << g_refused.load() << " bytes";
    }
  }
}

TEST(TextReaders, SingleByteCorruptionParsesOrThrows) {
  for (const TextCase& c : generated_texts()) {
    for (std::size_t i = 0; i < c.text.size(); ++i) {
      for (unsigned char delta : {0x01, 0x80, 0xff}) {
        std::string mutated = c.text;
        mutated[i] = static_cast<char>(
            static_cast<unsigned char>(mutated[i]) ^ delta);
        EXPECT_NE(read_capped(mutated, c.read, c.module_names),
                  TextOutcome::OverBudget)
            << c.what << " byte " << i << " ^ " << static_cast<int>(delta)
            << " asked for " << g_refused.load() << " bytes";
      }
    }
  }
}

TEST(TextReaders, HostileCorpusIsRejected) {
  using namespace std::string_literals;  // keeps embedded NUL bytes
  const TextCase corpus[] = {
      // A Verilog file cut off inside its port list or an argument list.
      {"verilog", read_verilog_text, "module m(input a, b", {}},
      {"verilog", read_verilog_text, "module m(input a);\n  and g(x, a", {}},
      {"verilog", read_verilog_text, "module m(input a);\n/* open", {}},
      {"verilog", read_verilog_text,
       "module m(input a);\n(* instrument = \"aes\n", {}},
      {"verilog", read_verilog_text, "module m(input a);\0\nendmodule\n"s,
       {}},
      {"verilog", read_verilog_text, "module m(input a);\xff\nendmodule", {}},
      {"verilog", read_verilog_text, "module m(input \\", {}},
      {"verilog", read_verilog_text,
       "module m(input a);\n(* instrument = \"x\"\n  dff (q, a);\n"
       "endmodule\n",
       {}},
      {"verilog", read_verilog_text,
       "module m(input a);\n  buf (x, 1234567890123456789012345);\n"
       "endmodule\n",
       {}},
      {"verilog", read_verilog_text,
       "module m(input a);\n  buf (x, 4'b2);\nendmodule\n", {}},
      {"icl", read_icl_text, "Module M { /* open", {}},
      {"icl", read_icl_text, "Module M { Attribute a = \"x; }", {}},
      {"icl", read_icl_text, "Module M {\0}"s, {}},
      {"icl", read_icl_text, "Module M {\xff}", {}},
      {"icl", read_icl_text, "Module \\", {}},
      {"icl", read_icl_text, "Module M { Attribute a = (* x; }", {}},
      {"icl", read_icl_text,
       "Module M { ScanInPort SI; ScanOutPort SO { Source R; }\n"
       "  ScanRegister R[1234567890123456789012345:0] { ScanInSource SI; } }",
       {}},
      {"icl", read_icl_text,
       "Module M { ScanInPort SI; ScanOutPort SO { Source m; }\n"
       "  ScanRegister R { ScanInSource SI; }\n"
       "  ScanMux m SelectedBy R { 4'b2 : SI; 4'b1 : R; } }",
       {}},
      {"icl", read_icl_text,
       "Module M { ScanInPort SI; ScanOutPort SO { Source R; }\n"
       "  ScanRegister R[4294967295:0] { ScanInSource SI; } }",
       {}},
      {"icl", read_icl_text,
       "Module A { ScanInPort SI; ScanOutPort SO { Source b; }\n"
       "  Instance b Of B { InputPort SI = SI; } }\n"
       "Module B { ScanInPort SI; ScanOutPort SO { Source a; }\n"
       "  Instance a Of A { InputPort SI = SI; } }\n"
       "Module Top { ScanInPort SI; ScanOutPort SO { Source a; }\n"
       "  Instance a Of A { InputPort SI = SI; } }",
       {}},
      {"rsn", read_rsn_text,
       "rsn x\nregister r ffs 1234567890123456789012345 module 0\n", {}},
      {"rsn", read_rsn_text, "rsn x\nregister \0 ffs 1"s,
       {}},
      {"rsn", read_rsn_text, "rsn x\nregister r\xff ffs 4'b2 module 0\n",
       {}},
      {"spec", read_spec_text,
       "categories 2\nmodule 0 trust 1234567890123456789012345 accepts 0\n",
       {}},
      {"spec", read_spec_text, "categories \0\n"s, {}},
  };
  for (const TextCase& c : corpus)
    EXPECT_EQ(read_capped(c.text, c.read, c.module_names),
              TextOutcome::Rejected)
        << c.what << ": " << c.text;
}

TEST(TextReaders, ReverseOrderGateChainParsesInLinearTime) {
  // A 50,000-gate buffer chain, each gate written before its fanin's
  // driver: every gate waits on the next line's output.
  constexpr int kGates = 50000;
  std::string text = "module chain(input n0);\n";
  for (int i = kGates; i >= 1; --i)
    text += "  buf (n" + std::to_string(i) + ", n" + std::to_string(i - 1) +
            ");\n";
  text += "  dff (q, n" + std::to_string(kGates) + ");\nendmodule\n";

  const auto start = std::chrono::steady_clock::now();
  AllocCap cap(kAllocMultiple * text.size());
  std::istringstream is(text);
  netlist::verilog::ParsedCircuit c = netlist::verilog::parse(is);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(c.netlist.num_nodes(), static_cast<std::size_t>(kGates) + 2);
  EXPECT_EQ(c.nets.size(), static_cast<std::size_t>(kGates) + 2);
  EXPECT_LT(seconds, 5.0);
}

// ---------------------------------------------------------------------------
// Protocol frames. serve::parse_request never throws: every frame comes
// back as a request or an SRV outcome, within the same per-byte budget as
// the text readers.

enum class FrameOutcome { Request, Refused, OverBudget, Threw };

FrameOutcome parse_frame_capped(const std::string& frame,
                                serve::ServeCode* code = nullptr) {
  AllocCap cap(kAllocMultiple * std::max(frame.size(), kMinTextBytes));
  try {
    serve::ParseOutcome o = serve::parse_request(frame);
    if (code != nullptr) *code = o.code;
    return o.ok() ? FrameOutcome::Request : FrameOutcome::Refused;
  } catch (const std::bad_alloc&) {
    return FrameOutcome::OverBudget;
  } catch (...) {
    return FrameOutcome::Threw;
  }
}

/// One analyze frame with inline payloads: a small BasicSCB design, its
/// circuit and its policy.
std::string analyze_frame() {
  Rng rng(4);
  rsn::RsnDocument doc = benchgen::generate_bastion(
      benchgen::bastion_profile("BasicSCB"), 0.002, rng);
  netlist::Netlist circuit = benchgen::attach_random_circuit(doc, {}, rng);
  security::SecuritySpec spec =
      benchgen::random_spec(doc.module_names.size(), {}, rng);
  std::ostringstream rsn_os, v_os, spec_os;
  rsn::write_rsn(rsn_os, doc.network, doc.module_names, &circuit);
  netlist::verilog::write(v_os, circuit, doc.network.name());
  security::write_spec(spec_os, spec, doc.module_names);
  return "{\"id\": 17, \"tenant\": \"acme\", \"command\": \"analyze\", "
         "\"rsn\": \"" + json_escape(rsn_os.str()) + "\", \"verilog\": \"" +
         json_escape(v_os.str()) + "\", \"spec\": \"" +
         json_escape(spec_os.str()) +
         "\", \"options\": {\"structural\": true, \"no_ternary\": false}}";
}

TEST(ProtocolFrames, AnalyzeFrameParsesWithinBudget) {
  const std::string frame = analyze_frame();
  EXPECT_GT(frame.size(), 1000u);
  EXPECT_LT(frame.size(), 8000u);
  EXPECT_EQ(parse_frame_capped(frame), FrameOutcome::Request);
}

TEST(ProtocolFrames, TableISizeFrameAllocatesAboutItsOwnSize) {
  // The q12710 design of the serve_open workload (~170 KB of frame). Each
  // payload is decoded into one string sized from its raw extent and then
  // moved into the request, so parsing allocates about the frame once.
  const std::string frame = table1_frame("q12710", 4).frame;
  ASSERT_GT(frame.size(), 100000u);
  const std::size_t before = g_allocated.load(std::memory_order_relaxed);
  serve::ParseOutcome o = serve::parse_request(frame);
  const std::size_t allocated =
      g_allocated.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(o.ok()) << o.message;
  EXPECT_LE(allocated, frame.size() * 3 / 2)
      << allocated << " bytes allocated for a " << frame.size()
      << "-byte frame";
}

TEST(ProtocolFrames, EveryTruncationReturnsAnOutcome) {
  const std::string frame = analyze_frame();
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    serve::ServeCode code = serve::ServeCode::Ok;
    EXPECT_EQ(parse_frame_capped(frame.substr(0, cut), &code),
              FrameOutcome::Refused)
        << "prefix length " << cut << " asked for " << g_refused.load()
        << " bytes";
    EXPECT_EQ(code, serve::ServeCode::MalformedFrame) << "prefix " << cut;
  }
}

TEST(ProtocolFrames, SingleByteCorruptionReturnsAnOutcome) {
  const std::string frame = analyze_frame();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (unsigned char delta : {0x01, 0x80, 0xff}) {
      std::string mutated = frame;
      mutated[i] = static_cast<char>(
          static_cast<unsigned char>(mutated[i]) ^ delta);
      const FrameOutcome o = parse_frame_capped(mutated);
      EXPECT_TRUE(o == FrameOutcome::Request || o == FrameOutcome::Refused)
          << "byte " << i << " ^ " << static_cast<int>(delta)
          << " asked for " << g_refused.load() << " bytes";
    }
  }
}

TEST(ProtocolFrames, HostileCorpusReturnsOutcomes) {
  using namespace std::string_literals;  // keeps embedded NUL bytes
  using serve::ServeCode;
  const std::string ping = "{\"command\": \"ping\", ";
  auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  std::string objects;
  for (int i = 0; i < 10000; ++i) objects += "{\"a\": ";
  std::string wide = "[";
  for (int i = 0; i < 2049; ++i) wide += i ? ",0" : "0";
  wide += "]";
  const std::pair<std::string, ServeCode> corpus[] = {
      // Nesting up to the parser's depth limit, and far beyond it. A
      // frame that parses is refused for "x", a field ping does not read
      // (BadField); one past the limit never parses (MalformedFrame).
      {ping + "\"x\": " + nested(64) + "}", ServeCode::BadField},
      {ping + "\"x\": " + nested(65) + "}", ServeCode::MalformedFrame},
      {std::string(100000, '['), ServeCode::MalformedFrame},
      {objects, ServeCode::MalformedFrame},
      {ping + "\"x\": " + wide + "}", ServeCode::BadField},
      // Unterminated strings.
      {"\"", ServeCode::MalformedFrame},
      {"{\"command\": \"ping", ServeCode::MalformedFrame},
      {"{\"command\": \"analyze\", \"rsn\": \"register r",
       ServeCode::MalformedFrame},
      {"{\"command\": \"ping\", \"id\": \"\\", ServeCode::MalformedFrame},
      // \u escapes: decoded, NUL, lone surrogate, truncated, not hex.
      {"{\"command\": \"p\\u0069ng\"}", ServeCode::Ok},
      {ping + "\"tenant\": \"\\u0000\"}", ServeCode::Ok},
      {ping + "\"id\": \"\\ud800\"}", ServeCode::Ok},
      {ping + "\"id\": \"\\u12\"}", ServeCode::MalformedFrame},
      {ping + "\"id\": \"\\uZZZZ\"}", ServeCode::MalformedFrame},
      {ping + "\"id\": \"\\u", ServeCode::MalformedFrame},
      // Out-of-range numbers: ids and seeds that no integer type holds.
      {ping + "\"id\": 1e400}", ServeCode::BadField},
      {ping + "\"id\": -1e400}", ServeCode::BadField},
      {ping + "\"id\": 9223372036854775808}", ServeCode::BadField},
      {ping + "\"id\": 9007199254740993}", ServeCode::Ok},
      {ping + "\"id\": 1e-400}", ServeCode::Ok},
      {"{\"command\": \"attack\", \"benchmark\": \"Mingle\", \"seed\": 1e400}",
       ServeCode::BadField},
      {"{\"command\": \"attack\", \"benchmark\": \"Mingle\", "
       "\"seed\": 18446744073709551616}",
       ServeCode::BadField},
      {"{\"command\": \"attack\", \"benchmark\": \"Mingle\", \"seed\": 1e19}",
       ServeCode::Ok},
      {ping + "\"id\": 1e99999999999999999999}", ServeCode::BadField},
      // Bytes that are not UTF-8, inside and outside strings.
      {ping + "\"tenant\": \"\xff\xfe\"}", ServeCode::Ok},
      {"{\"command\": \"\xc0\x80\"}", ServeCode::UnknownCommand},
      {"\xef\xbb\xbf{\"command\": \"ping\"}", ServeCode::MalformedFrame},
      {"{\"command\": \"ping\"}\0"s, ServeCode::MalformedFrame},
      {"{\"command\": \"ping\"\x80}", ServeCode::MalformedFrame},
      {"{\"command\": \"ping\", \"tenant\": \"a\0b\"}"s,
       ServeCode::MalformedFrame},
      {"", ServeCode::MalformedFrame},
  };
  for (const auto& [frame, want] : corpus) {
    ServeCode code = ServeCode::Internal;
    const FrameOutcome o = parse_frame_capped(frame, &code);
    EXPECT_TRUE(o == FrameOutcome::Request || o == FrameOutcome::Refused)
        << frame.substr(0, 80) << " asked for " << g_refused.load()
        << " bytes";
    EXPECT_EQ(code, want) << frame.substr(0, 80);
  }
}

}  // namespace
}  // namespace rsnsec::store
