// Codec layer of the artifact store: canonical primitive encodings, the
// checksum/key hashes, and the model-object codecs. The decoders face
// on-disk bytes that may be truncated or hostile, so every malformation
// must surface as CodecError — never as a crash or silent misparse. The
// truncation and corruption sweeps live in codec_corruption_test.cpp,
// under an allocation budget.

#include "store/codec.hpp"

#include <gtest/gtest.h>

#include "store/codec_fixtures.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace rsnsec::store {
namespace {

// ------------------------------------------------------------ primitives

TEST(VarintCodec, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,     1,          127,        128,
                                  16383, 16384,      0xffffffff, 1ull << 32,
                                  (1ull << 63) - 1,  1ull << 63, ~0ull};
  for (std::uint64_t v : values) {
    ByteWriter w;
    w.varint(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.varint(), v);
    r.expect_end();
  }
}

TEST(VarintCodec, RejectsNonCanonicalEncoding) {
  // 0 padded to two bytes: the writer never emits a zero continuation.
  std::string padded_zero = {'\x80', '\x00'};
  ByteReader r1(padded_zero);
  EXPECT_THROW(r1.varint(), CodecError);
  // 1 padded to two bytes.
  std::string padded_one = {'\x81', '\x00'};
  ByteReader r2(padded_one);
  EXPECT_THROW(r2.varint(), CodecError);
}

TEST(VarintCodec, RejectsOverflowAndOverlength) {
  // Ten continuation bytes: more than 64 bits of payload.
  std::string overlong(10, '\xff');
  ByteReader r1(overlong);
  EXPECT_THROW(r1.varint(), CodecError);
  // Exactly ten bytes but the top byte claims bits 64+.
  std::string overflow(9, '\xff');
  overflow.push_back('\x02');
  ByteReader r2(overflow);
  EXPECT_THROW(r2.varint(), CodecError);
}

TEST(VarintCodec, RejectsTruncation) {
  ByteWriter w;
  w.varint(300);  // two bytes
  std::string cut = w.bytes().substr(0, 1);
  ByteReader r(cut);
  EXPECT_THROW(r.varint(), CodecError);
}

TEST(ZigzagCodec, RoundTripsSignedExtremes) {
  const std::int64_t values[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (std::int64_t v : values) {
    ByteWriter w;
    w.zigzag(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.zigzag(), v);
  }
  // Small magnitudes stay small on the wire.
  ByteWriter w;
  w.zigzag(-1);
  EXPECT_EQ(w.size(), 1u);
}

TEST(StringCodec, RoundTripsAndRejectsTruncatedBody) {
  const std::string payload("hello\0world", 11);  // embedded NUL survives
  ByteWriter w;
  w.str(payload);
  ByteReader ok(w.bytes());
  EXPECT_EQ(ok.str(), payload);
  std::string cut = w.bytes().substr(0, w.size() - 1);
  ByteReader bad(cut);
  EXPECT_THROW(bad.str(), CodecError);
}

TEST(SectionCodec, BoundsTheReaderExactly) {
  ByteWriter body;
  body.varint(42);
  ByteWriter outer;
  outer.section(body);
  outer.varint(7);

  ByteReader r(outer.bytes());
  ByteReader sec = r.section();
  EXPECT_EQ(sec.varint(), 42u);
  sec.expect_end();
  EXPECT_EQ(r.varint(), 7u);
  r.expect_end();
}

TEST(SectionCodec, ExpectEndCatchesTrailingBytes) {
  ByteWriter body;
  body.varint(1);
  body.varint(2);
  ByteWriter outer;
  outer.section(body);
  ByteReader r(outer.bytes());
  ByteReader sec = r.section();
  sec.varint();
  EXPECT_THROW(sec.expect_end(), CodecError);
}

TEST(CountCodec, RejectsCountsTheRemainingBytesCannotHold) {
  ByteWriter w;
  w.varint(3);
  w.raw("abcdef", 6);
  {
    ByteReader r(w.bytes());
    EXPECT_EQ(r.count(2), 3u);  // 3 items x 2 bytes fit in 6
  }
  {
    ByteReader r(w.bytes());
    EXPECT_THROW(r.count(3), CodecError);  // 9 bytes needed, 6 present
  }
  ByteWriter huge;
  huge.varint(~0ull);
  ByteReader r(huge.bytes());
  EXPECT_THROW(r.count(1), CodecError);
}

// ------------------------------------------------------------- checksums

TEST(Checksums, Fnv1a64KnownVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Checksums, Sha256KnownVectors) {
  EXPECT_EQ(
      Sha256::hex(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      Sha256::hex("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // NIST two-block message.
  EXPECT_EQ(
      Sha256::hex(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Checksums, Sha256IncrementalMatchesOneShot) {
  std::string data(1000, 'x');
  Sha256 h;
  for (std::size_t i = 0; i < data.size(); i += 7)
    h.update(data.substr(i, 7));
  std::array<std::uint8_t, 32> a = h.digest();
  Sha256 h2;
  h2.update(data);
  EXPECT_EQ(a, h2.digest());
}

// ---------------------------------------------------------------- netlist

TEST(NetlistCodec, RoundTripIsCanonical) {
  netlist::Netlist nl = example_netlist();
  ByteWriter w;
  encode_netlist(w, nl);
  ByteReader r(w.bytes());
  netlist::Netlist decoded = decode_netlist(r);
  r.expect_end();

  ASSERT_EQ(decoded.num_nodes(), nl.num_nodes());
  ASSERT_EQ(decoded.num_modules(), nl.num_modules());
  EXPECT_EQ(decoded.module_name(1), "instrument");
  EXPECT_EQ(decoded.ffs(), nl.ffs());
  EXPECT_EQ(decoded.node(4).name, "ff1");
  EXPECT_EQ(decoded.node(4).fanins, nl.node(4).fanins);
  std::string err;
  EXPECT_TRUE(decoded.validate(&err)) << err;

  // Canonicality: the decoded netlist re-encodes to identical bytes, so
  // the encoding is usable as a content-hash input.
  ByteWriter w2;
  encode_netlist(w2, decoded);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

TEST(NetlistCodec, RejectsHostileStructures) {
  {  // Unknown gate type.
    ByteWriter w;
    w.varint(0);  // modules
    w.varint(1);  // nodes
    w.u8(200);
    ByteReader r(w.bytes());
    EXPECT_THROW(decode_netlist(r), CodecError);
  }
  {  // Fanin id out of range.
    ByteWriter w;
    w.varint(0);
    w.varint(1);
    w.u8(static_cast<std::uint8_t>(netlist::GateType::Buf));
    w.zigzag(netlist::no_module);
    w.str("");
    w.varint(1);
    w.varint(5);  // only node 0 exists
    ByteReader r(w.bytes());
    EXPECT_THROW(decode_netlist(r), CodecError);
  }
  {  // Primary input with fanins.
    ByteWriter w;
    w.varint(0);
    w.varint(1);
    w.u8(static_cast<std::uint8_t>(netlist::GateType::Input));
    w.zigzag(netlist::no_module);
    w.str("i");
    w.varint(1);
    w.varint(0);
    ByteReader r(w.bytes());
    EXPECT_THROW(decode_netlist(r), CodecError);
  }
  {  // Constant carrying a name (not representable via the API).
    ByteWriter w;
    w.varint(0);
    w.varint(1);
    w.u8(static_cast<std::uint8_t>(netlist::GateType::Const0));
    w.zigzag(netlist::no_module);
    w.str("named");
    w.varint(0);
    ByteReader r(w.bytes());
    EXPECT_THROW(decode_netlist(r), CodecError);
  }
  {  // Node module out of range.
    ByteWriter w;
    w.varint(1);
    w.str("m");
    w.varint(1);
    w.u8(static_cast<std::uint8_t>(netlist::GateType::Input));
    w.zigzag(3);
    w.str("i");
    w.varint(0);
    ByteReader r(w.bytes());
    EXPECT_THROW(decode_netlist(r), CodecError);
  }
}

// -------------------------------------------------------------------- rsn

TEST(RsnCodec, RoundTripIsCanonical) {
  rsn::Rsn net = example_rsn();
  ByteWriter w;
  encode_rsn(w, net);
  ByteReader r(w.bytes());
  rsn::Rsn decoded = decode_rsn(r);
  r.expect_end();

  ASSERT_EQ(decoded.num_elements(), net.num_elements());
  EXPECT_EQ(decoded.name(), "example");
  EXPECT_EQ(decoded.registers(), net.registers());
  EXPECT_EQ(decoded.muxes(), net.muxes());
  rsn::ElemId m = net.muxes()[0];
  EXPECT_EQ(decoded.mux_select(m), 1u);
  EXPECT_EQ(decoded.elem(m).inputs[2], rsn::no_elem);  // dangling port
  EXPECT_EQ(decoded.elem(net.muxes()[1]).inputs.size(), 1u);
  rsn::ElemId r1 = net.registers()[0];
  EXPECT_EQ(decoded.elem(r1).module, 0);
  EXPECT_EQ(decoded.elem(r1).ffs[0].capture_src, 5u);
  EXPECT_EQ(decoded.elem(r1).ffs[1].update_dst, 7u);

  ByteWriter w2;
  encode_rsn(w2, decoded);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

TEST(RsnCodec, RejectsHostileStructures) {
  {  // No scan ports at all.
    ByteWriter w;
    w.str("x");
    w.varint(1);
    ByteReader r(w.bytes());
    EXPECT_THROW(decode_rsn(r), CodecError);
  }
  {  // Element 0 is not the scan-in port.
    ByteWriter w;
    w.str("x");
    w.varint(2);
    w.u8(static_cast<std::uint8_t>(rsn::ElemKind::Register));
    ByteReader r(w.bytes());
    EXPECT_THROW(decode_rsn(r), CodecError);
  }
}

// ------------------------------------------------------------- dep matrix

TEST(DepMatrixCodec, RoundTripsOddDimensions) {
  for (std::size_t n : {0u, 1u, 63u, 64u, 70u, 130u}) {
    DepMatrix m(n);
    for (std::size_t i = 0; i < n; ++i) {
      m.upgrade(i, (i * 7 + 3) % n, DepKind::Structural);
      if (i % 3 == 0) m.upgrade((i * 5) % n, i, DepKind::Path);
    }
    ByteWriter w;
    encode_dep_matrix(w, m);
    ByteReader r(w.bytes());
    DepMatrix decoded = decode_dep_matrix(r);
    r.expect_end();
    EXPECT_TRUE(decoded == m) << "n=" << n;

    ByteWriter w2;
    encode_dep_matrix(w2, decoded);
    EXPECT_EQ(w.bytes(), w2.bytes());
  }
}

TEST(DepMatrixCodec, RejectsInvalidPlanes) {
  {  // Path bit without the matching structural bit.
    ByteWriter w;
    w.varint(1);
    w.fixed64(0);  // S plane
    w.fixed64(1);  // P plane claims a dependency S does not have
    ByteReader r(w.bytes());
    EXPECT_THROW(decode_dep_matrix(r), CodecError);
  }
  {  // Bit set beyond column n-1.
    ByteWriter w;
    w.varint(1);
    w.fixed64(2);
    w.fixed64(0);
    ByteReader r(w.bytes());
    EXPECT_THROW(decode_dep_matrix(r), CodecError);
  }
  {  // Absurd dimension rejected before any allocation.
    ByteWriter w;
    w.varint((1ull << 24) + 1);
    ByteReader r(w.bytes());
    EXPECT_THROW(decode_dep_matrix(r), CodecError);
  }
}

}  // namespace
}  // namespace rsnsec::store
