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

namespace {

constexpr std::array<std::uint32_t, 64> kSha256K = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::compress(const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (int i = 0; i < 64; ++i) {
    std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    std::uint32_t ch = (e & f) ^ (~e & g);
    std::uint32_t t1 = h + s1 + ch + kSha256K[static_cast<std::size_t>(i)] +
                       w[i];
    std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::update(const void* data, std::size_t n) {
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  total_ += n;
  while (n > 0) {
    std::size_t take = std::min(n, block_.size() - fill_);
    std::memcpy(block_.data() + fill_, p, take);
    fill_ += take;
    p += take;
    n -= take;
    if (fill_ == block_.size()) {
      compress(block_.data());
      fill_ = 0;
    }
  }
}

std::array<std::uint8_t, 32> Sha256::digest() {
  std::uint64_t bit_len = total_ * 8;
  std::uint8_t pad = 0x80;
  update(&pad, 1);
  std::uint8_t zero = 0;
  while (fill_ != 56) update(&zero, 1);
  std::uint8_t len[8];
  for (int i = 0; i < 8; ++i)
    len[i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  update(len, 8);
  std::array<std::uint8_t, 32> out;
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(4 * i)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 24);
    out[static_cast<std::size_t>(4 * i + 1)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 16);
    out[static_cast<std::size_t>(4 * i + 2)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 8);
    out[static_cast<std::size_t>(4 * i + 3)] =
        static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)]);
  }
  return out;
}

std::string Sha256::hex(std::string_view bytes) {
  Sha256 h;
  h.update(bytes);
  std::array<std::uint8_t, 32> d = h.digest();
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : d) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
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
