// Codec layer of the artifact store: canonical primitive encodings, the
// checksum/key hashes, and the dependency-matrix codec. The decoders face
// on-disk bytes that may be truncated or hostile, so every malformation
// must surface as CodecError — never as a crash or silent misparse. The
// truncation and corruption sweeps live in codec_corruption_test.cpp,
// under an allocation budget.

#include "store/codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

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

/// Hex digest of `data` fed to `h` in two updates, split at `cut`.
std::string split_digest(Sha256 h, std::string_view data, std::size_t cut) {
  h.update(data.substr(0, cut));
  h.update(data.substr(cut));
  return h.hex_digest();
}

std::string random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng.below(256));
  return s;
}

// The SHA-extension compression against the portable one, which stays
// the reference: every message length across the padding boundaries
// (0 to 257 bytes, so 0 to 5 blocks), every split of update() over each
// of them, and one 1 MB input fed in uneven pieces.
TEST(Checksums, Sha256DispatchedMatchesPortable) {
  if (!Sha256::uses_sha_extensions())
    GTEST_SKIP() << "this CPU lacks the SHA extensions (or SSSE3/SSE4.1); "
                    "every hasher runs the portable compression";
  const std::string data = random_bytes(257, 7);
  for (std::size_t n = 0; n <= data.size(); ++n) {
    const std::string_view msg(data.data(), n);
    Sha256 reference = Sha256::portable();
    reference.update(msg);
    const std::string expected = reference.hex_digest();
    for (std::size_t cut = 0; cut <= n; ++cut)
      ASSERT_EQ(split_digest(Sha256(), msg, cut), expected)
          << "length " << n << ", split at " << cut;
  }
  const std::string big = random_bytes(1 << 20, 11);
  Sha256 dispatched;
  for (std::size_t at = 0, step = 1; at < big.size(); at += step, step += 37)
    dispatched.update(std::string_view(big).substr(at, step));
  Sha256 reference = Sha256::portable();
  reference.update(big);
  EXPECT_EQ(dispatched.hex_digest(), reference.hex_digest());
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
