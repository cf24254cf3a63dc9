#include "store/codec.hpp"

#include <cassert>
#include <cstring>

namespace rsnsec::store {

namespace {

[[noreturn]] void fail(const char* msg) { throw CodecError(msg); }

}  // namespace

// --------------------------------------------------------------- writer

void ByteWriter::varint(std::uint64_t v) {
  while (v >= 0x80) {
    bytes_.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  bytes_.push_back(static_cast<char>(v));
}

void ByteWriter::zigzag(std::int64_t v) {
  varint((static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63));
}

void ByteWriter::fixed64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void ByteWriter::str(std::string_view s) {
  varint(s.size());
  bytes_.append(s.data(), s.size());
}

void ByteWriter::raw(const void* data, std::size_t n) {
  bytes_.append(static_cast<const char*>(data), n);
}

void ByteWriter::section(const ByteWriter& body) {
  varint(body.bytes_.size());
  bytes_.append(body.bytes_);
}

// --------------------------------------------------------------- reader

void ByteReader::need(std::size_t n) const {
  if (n > data_.size() - pos_) fail("truncated data");
}

std::uint8_t ByteReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    std::uint8_t b = u8();
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      // Canonical form: no zero continuation byte (the writer never
      // emits one), and the top byte must fit the remaining bits.
      if (b == 0 && shift != 0) fail("non-canonical varint");
      if (shift == 63 && b > 1) fail("varint overflow");
      return v;
    }
  }
  fail("varint too long");
}

std::int64_t ByteReader::zigzag() {
  std::uint64_t v = varint();
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

std::uint64_t ByteReader::fixed64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(
             static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  pos_ += 8;
  return v;
}

std::string ByteReader::str() {
  const std::size_t n = count(1);
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

void ByteReader::raw(void* out, std::size_t n) {
  need(n);
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
}

ByteReader ByteReader::section() {
  const std::size_t n = count(1);
  ByteReader r(data_.substr(pos_, n));
  pos_ += n;
  return r;
}

std::size_t ByteReader::count(std::size_t min_bytes_per_item) {
  assert(min_bytes_per_item > 0);
  std::uint64_t n = varint();
  if (n > remaining() / min_bytes_per_item)
    fail("count exceeds the remaining data");
  return static_cast<std::size_t>(n);
}

void ByteReader::expect_end() const {
  if (pos_ != data_.size()) fail("trailing bytes after structure");
}

// ------------------------------------------------------------- checksums

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// ------------------------------------------------- model object codecs

void encode_netlist(ByteWriter& w, const netlist::Netlist& nl) {
  w.varint(nl.num_modules());
  for (std::size_t m = 0; m < nl.num_modules(); ++m)
    w.str(nl.module_name(static_cast<netlist::ModuleId>(m)));
  w.varint(nl.num_nodes());
  for (std::size_t i = 0; i < nl.num_nodes(); ++i) {
    const netlist::Node& n = nl.node(static_cast<netlist::NodeId>(i));
    w.u8(static_cast<std::uint8_t>(n.type));
    w.zigzag(n.module);
    w.str(n.name);
    w.varint(n.fanins.size());
    for (netlist::NodeId f : n.fanins) w.varint(f);
  }
}

void encode_rsn(ByteWriter& w, const rsn::Rsn& network) {
  w.str(network.name());
  w.varint(network.num_elements());
  for (std::size_t i = 0; i < network.num_elements(); ++i) {
    const rsn::Element& e = network.elem(static_cast<rsn::ElemId>(i));
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.str(e.name);
    w.zigzag(e.module);
    w.varint(e.sel);
    w.varint(e.inputs.size());
    for (rsn::ElemId in : e.inputs) w.varint(in);
    w.varint(e.ffs.size());
    for (const rsn::ScanFF& f : e.ffs) {
      w.varint(f.capture_src);
      w.varint(f.update_dst);
    }
  }
}

void encode_dep_matrix(ByteWriter& w, const DepMatrix& m) {
  w.varint(m.size());
  const std::vector<std::uint64_t>& s = m.plane_s();
  const std::vector<std::uint64_t>& p = m.plane_p();
  for (std::uint64_t word : s) w.fixed64(word);
  for (std::uint64_t word : p) w.fixed64(word);
}

DepMatrix decode_dep_matrix(ByteReader& r) {
  // Every row holds at least one word per plane; the exact plane size
  // must be present too before the planes are allocated.
  const std::size_t n = r.count(16);
  const std::size_t words = n * ((n + 63) / 64);
  if (words > r.remaining() / 16) fail("matrix planes exceed the data");
  std::vector<std::uint64_t> s(words), p(words);
  for (std::uint64_t& word : s) word = r.fixed64();
  for (std::uint64_t& word : p) word = r.fixed64();
  DepMatrix m;
  if (!DepMatrix::from_planes(n, std::move(s), std::move(p), &m))
    fail("invalid matrix planes");
  return m;
}

void encode_tiled_matrix(ByteWriter& w, const TiledDepMatrix& m) {
  w.varint(m.size());
  w.varint(m.tiles_nonzero());
  std::size_t written = 0;
  m.for_each_tile([&](std::size_t rb, std::size_t cb,
                      const TiledDepMatrix::Tile& t) {
    w.varint(rb);
    w.varint(cb);
    for (std::size_t r = 0; r < 64; ++r) w.fixed64(t.s[r]);
    for (std::size_t r = 0; r < 64; ++r) w.fixed64(t.p[r]);
    ++written;
  });
  // for_each_tile skips all-zero tiles defensively; tiles_nonzero counts
  // slots. The two only diverge on a corrupted in-memory matrix, and a
  // count mismatch must fail encode, not produce an undecodable blob.
  if (written != m.tiles_nonzero()) fail("tiled matrix tile count skew");
}

TiledDepMatrix decode_tiled_matrix(ByteReader& r) {
  std::uint64_t n64 = r.varint();
  if (n64 > (1ull << 24)) fail("matrix dimension out of range");
  const std::size_t n = static_cast<std::size_t>(n64);
  const std::size_t nb = (n + 63) / 64;
  // A tile is two coordinate varints and 128 words.
  const std::size_t tiles = r.count(2 + 128 * 8);
  if (tiles > nb * nb) fail("tile count out of range");
  TiledDepMatrix m(n);
  TiledDepMatrix::Tile t;
  bool first = true;
  std::uint64_t last_rb = 0;
  std::uint64_t last_cb = 0;
  for (std::size_t k = 0; k < tiles; ++k) {
    std::uint64_t rb = r.varint();
    std::uint64_t cb = r.varint();
    if (rb >= nb || cb >= nb) fail("tile coordinates out of range");
    // Canonical blobs list tiles in strictly ascending (rb, cb) order;
    // insert_tile only validates the per-row-block suffix of that.
    if (!first && (rb < last_rb || (rb == last_rb && cb <= last_cb)))
      fail("tile order not canonical");
    first = false;
    last_rb = rb;
    last_cb = cb;
    for (std::size_t row = 0; row < 64; ++row) t.s[row] = r.fixed64();
    for (std::size_t row = 0; row < 64; ++row) t.p[row] = r.fixed64();
    if (!m.insert_tile(static_cast<std::size_t>(rb),
                       static_cast<std::size_t>(cb), t))
      fail("invalid tile payload or order");
  }
  return m;
}

}  // namespace rsnsec::store
