// SHA-256 (FIPS 180-4) with two block compressions: the portable one, and
// one on the x86 SHA extensions, chosen once per process from CPUID.

#include <algorithm>
#include <cstring>

#include "store/codec.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define RSNSEC_SHA_EXTENSIONS 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace rsnsec::store {

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

void compress_portable(std::uint32_t* state, const std::uint8_t* p,
                       std::size_t blocks) {
  for (; blocks > 0; --blocks, p += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(p[4 * i]) << 24) |
             (static_cast<std::uint32_t>(p[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(p[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(p[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t t1 =
          h + s1 + ch + kSha256K[static_cast<std::size_t>(i)] + w[i];
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
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef RSNSEC_SHA_EXTENSIONS

/// CPUID leaf 1 ECX: SSSE3 (bit 9) and SSE4.1 (bit 19); leaf 7 EBX: SHA
/// (bit 29).
bool cpu_has_sha_extensions() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  const bool ssse3_sse41 = (c & (1u << 9)) != 0 && (c & (1u << 19)) != 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return ssse3_sse41 && (b & (1u << 29)) != 0;
}

/// The state lives in two registers as the instructions want it: ABEF
/// and CDGH. Each of the 16 steps i runs four rounds (two sha256rnds2)
/// on the message quad m[i % 4] and extends the schedule in place:
/// sha256msg2 finishes the quad step i + 1 uses (from step 3 on) and
/// sha256msg1 starts the one step i + 3 uses (up to step 12).
__attribute__((target("sha,ssse3,sse4.1"))) void compress_sha_extensions(
    std::uint32_t* state, const std::uint8_t* p, std::size_t blocks) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL,
                                           0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);            // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);          // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);  // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);       // CDGH
  for (; blocks > 0; --blocks, p += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m[4];
#pragma GCC unroll 16
    for (std::size_t i = 0; i < 16; ++i) {
      __m128i& cur = m[i & 3];
      if (i < 4)
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * i)),
            byte_swap);
      const __m128i k = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                   kSha256K.data() + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, k);
      if (i >= 3 && i <= 14) {
        __m128i& next = m[(i + 1) & 3];
        next = _mm_sha256msg2_epu32(
            _mm_add_epi32(next, _mm_alignr_epi8(cur, m[(i + 3) & 3], 4)),
            cur);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(k, 0x0E));
      if (i >= 1 && i <= 12) {
        __m128i& prev = m[(i + 3) & 3];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  tmp = _mm_shuffle_epi32(abef, 0x1B);      // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);     // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);  // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}

#endif

/// The compression default-constructed hashers run, decided on first use.
auto native_compress() -> decltype(&compress_portable) {
#ifdef RSNSEC_SHA_EXTENSIONS
  static const auto fn = cpu_has_sha_extensions() ? compress_sha_extensions
                                                  : compress_portable;
  return fn;
#else
  return compress_portable;
#endif
}

}  // namespace

Sha256::Sha256(Compress compress)
    : compress_(compress),
      state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

Sha256::Sha256() : Sha256(native_compress()) {}

Sha256 Sha256::portable() { return Sha256(compress_portable); }

bool Sha256::uses_sha_extensions() {
  return native_compress() != compress_portable;
}

void Sha256::update(const void* data, std::size_t n) {
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  total_ += n;
  if (fill_ != 0) {
    const std::size_t take = std::min(n, block_.size() - fill_);
    std::memcpy(block_.data() + fill_, p, take);
    fill_ += take;
    p += take;
    n -= take;
    if (fill_ < block_.size()) return;
    compress_(state_.data(), block_.data(), 1);
    fill_ = 0;
  }
  if (const std::size_t blocks = n / 64; blocks > 0) {
    compress_(state_.data(), p, blocks);
    p += blocks * 64;
    n -= blocks * 64;
  }
  if (n > 0) std::memcpy(block_.data(), p, n);
  fill_ = n;
}

std::array<std::uint8_t, 32> Sha256::digest() {
  const std::uint64_t bit_len = total_ * 8;
  block_[fill_++] = 0x80;
  if (fill_ > 56) {
    std::fill(block_.begin() + static_cast<std::ptrdiff_t>(fill_),
              block_.end(), 0);
    compress_(state_.data(), block_.data(), 1);
    fill_ = 0;
  }
  std::fill(block_.begin() + static_cast<std::ptrdiff_t>(fill_),
            block_.begin() + 56, 0);
  for (std::size_t i = 0; i < 8; ++i)
    block_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  compress_(state_.data(), block_.data(), 1);
  fill_ = 0;
  std::array<std::uint8_t, 32> out;
  for (std::size_t i = 0; i < 32; ++i)
    out[i] = static_cast<std::uint8_t>(state_[i / 4] >> (8 * (3 - i % 4)));
  return out;
}

std::string Sha256::hex_digest() {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : digest()) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

std::string Sha256::hex(std::string_view bytes) {
  Sha256 h;
  h.update(bytes);
  return h.hex_digest();
}

}  // namespace rsnsec::store
