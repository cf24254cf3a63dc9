#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"
#include "rsn/io.hpp"
#include "rsn/rsn.hpp"
#include "util/dep_matrix.hpp"
#include "util/tiled_matrix.hpp"

namespace rsnsec::store {

/// Malformed serialized data (truncation, out-of-range value, shape
/// mismatch). The artifact store treats any CodecError as a cache miss
/// and quarantines the offending blob; it must never escape to the user
/// as a crash.
struct CodecError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ------------------------------------------------------------ primitives

/// Append-only byte buffer with the codec's primitive encodings: LEB128
/// varints for integers (canonical: minimal length), zigzag for signed
/// values, length-prefixed strings, and fixed-width little-endian words
/// for bit-plane payloads.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void varint(std::uint64_t v);
  void zigzag(std::int64_t v);
  void fixed64(std::uint64_t v);
  void str(std::string_view s);
  void raw(const void* data, std::size_t n);
  void reserve(std::size_t n) { bytes_.reserve(n); }

  /// Length-prefixed section framing: a reader can skip or bound a
  /// section without understanding its contents.
  void section(const ByteWriter& body);

  const std::string& bytes() const { return bytes_; }
  std::string take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }

 private:
  std::string bytes_;
};

/// Bounds-checked reader over a byte range. Every overrun, non-canonical
/// varint or oversized length throws CodecError.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : data_(bytes) {}

  std::uint8_t u8();
  std::uint64_t varint();
  std::int64_t zigzag();
  std::uint64_t fixed64();
  std::string str();
  void raw(void* out, std::size_t n);

  /// Enters a length-prefixed section, returning a reader bounded to it.
  ByteReader section();

  /// Reads a varint item count and rejects it unless that many items of
  /// at least `min_bytes_per_item` bytes each can still follow. Decoders
  /// size containers from the result, so no count — however corrupted —
  /// requests an allocation larger than the remaining input justifies.
  std::size_t count(std::size_t min_bytes_per_item);

  std::size_t remaining() const { return data_.size() - pos_; }

  /// Fails unless the reader consumed its range exactly.
  void expect_end() const;

 private:
  std::string_view data_;
  std::size_t pos_ = 0;

  void need(std::size_t n) const;
};

// ------------------------------------------------------------- checksums

/// FNV-1a 64-bit hash; the cheap trailing checksum of store blobs.
std::uint64_t fnv1a64(std::string_view bytes);

/// Incremental SHA-256; derives content-addressed cache keys. Keys must
/// be collision-resistant — two different (circuit, RSN, options) inputs
/// mapping to one key would silently serve the wrong analysis — so a
/// cryptographic hash is used even though blobs only carry the cheap
/// FNV checksum against accidental corruption.
///
/// update() compresses whole 64-byte blocks straight from the caller's
/// buffer; only a partial block is copied. Where CPUID reports the SHA
/// extensions together with SSSE3 and SSE4.1, the compression runs on
/// sha256rnds2/sha256msg1/sha256msg2; on every other CPU, and on non-x86
/// builds, the portable compression runs. Both give the same digest.
class Sha256 {
 public:
  Sha256();
  /// A hasher that always runs the portable compression: the reference
  /// the dispatched one is tested against.
  static Sha256 portable();
  /// True iff default-constructed hashers use the SHA extensions.
  static bool uses_sha_extensions();

  void update(const void* data, std::size_t n);
  void update(std::string_view s) { update(s.data(), s.size()); }
  std::array<std::uint8_t, 32> digest();
  /// digest() as 64 lowercase hex characters.
  std::string hex_digest();

  /// Hex digest of `bytes` (64 lowercase hex characters).
  static std::string hex(std::string_view bytes);

 private:
  /// Compresses `blocks` consecutive 64-byte blocks into `state`.
  using Compress = void (*)(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks);

  explicit Sha256(Compress compress);

  Compress compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> block_;
  std::uint64_t total_ = 0;
  std::size_t fill_ = 0;
};

// ------------------------------------------------- model object codecs

/// Canonical encoding of a netlist: modules, then nodes in id order with
/// type, module, name and fanins. Everything observable through the
/// Netlist API is covered, so equal encodings imply indistinguishable
/// netlists. Key material only: the store hashes it into the cache key
/// (dep_cache_key) and never stores or decodes a netlist.
void encode_netlist(ByteWriter& w, const netlist::Netlist& nl);

/// Canonical encoding of an RSN: name, then elements in id order with
/// kind, name, module, mux select, input ports and scan FFs (capture /
/// update attachments included). Key material only, like
/// encode_netlist.
void encode_rsn(ByteWriter& w, const rsn::Rsn& network);

/// Canonical encoding of a DepMatrix: dimension, then the two bit planes
/// as little-endian words. Decode validates the plane shapes, the
/// P-implies-S invariant and that no bit beyond column n-1 is set.
void encode_dep_matrix(ByteWriter& w, const DepMatrix& m);
DepMatrix decode_dep_matrix(ByteReader& r);

/// Canonical encoding of a TiledDepMatrix: dimension, non-zero tile
/// count, then each tile as (row block, column block, 128 little-endian
/// words) in strictly ascending (row block, column block) order — the
/// size is proportional to the denoted tiles, not n^2, which is the point
/// of spilling large matrices through the store. Decode validates tile
/// order, range, non-zero payload, clear edge-tail bits and the
/// P-implies-S invariant (via TiledDepMatrix::insert_tile).
void encode_tiled_matrix(ByteWriter& w, const TiledDepMatrix& m);
TiledDepMatrix decode_tiled_matrix(ByteReader& r);

}  // namespace rsnsec::store
