#include "crypto/poly1305.hpp"

#include <algorithm>
#include <cstring>

namespace sdvm::crypto {

namespace {

constexpr std::uint32_t kLimb = 0x3ffffff;  // 26 bits

std::uint32_t le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

}  // namespace

Poly1305::Poly1305(const Key& key) {
  // r is clamped (RFC 8439 §2.5) while it is split into 26-bit limbs.
  r_[0] = le32(&key[0]) & 0x3ffffff;
  r_[1] = (le32(&key[3]) >> 2) & 0x3ffff03;
  r_[2] = (le32(&key[6]) >> 4) & 0x3ffc0ff;
  r_[3] = (le32(&key[9]) >> 6) & 0x3f03fff;
  r_[4] = (le32(&key[12]) >> 8) & 0x00fffff;
  for (int i = 0; i < 4; ++i) pad_[i] = le32(&key[16 + 4 * i]);
}

// h = (h + m) * r mod 2^130 - 5 for each 16-byte block of m; `hibit` is the
// 2^128 bit every full block carries (a padded final block sets its own).
void Poly1305::blocks(const std::uint8_t* m, std::size_t bytes,
                      std::uint32_t hibit) {
  const std::uint64_t r0 = r_[0], r1 = r_[1], r2 = r_[2], r3 = r_[3],
                      r4 = r_[4];
  const std::uint64_t s1 = r1 * 5, s2 = r2 * 5, s3 = r3 * 5, s4 = r4 * 5;
  std::uint32_t h0 = h_[0], h1 = h_[1], h2 = h_[2], h3 = h_[3], h4 = h_[4];

  for (; bytes >= kBlockSize; m += kBlockSize, bytes -= kBlockSize) {
    h0 += le32(m) & kLimb;
    h1 += (le32(m + 3) >> 2) & kLimb;
    h2 += (le32(m + 6) >> 4) & kLimb;
    h3 += (le32(m + 9) >> 6) & kLimb;
    h4 += (le32(m + 12) >> 8) | hibit;

    const std::uint64_t d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
    std::uint64_t d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
    std::uint64_t d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
    std::uint64_t d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
    std::uint64_t d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

    // Partial carry: limbs stay a few bits over 26, which the next
    // block's products absorb.
    h0 = static_cast<std::uint32_t>(d0) & kLimb;
    d1 += d0 >> 26;
    h1 = static_cast<std::uint32_t>(d1) & kLimb;
    d2 += d1 >> 26;
    h2 = static_cast<std::uint32_t>(d2) & kLimb;
    d3 += d2 >> 26;
    h3 = static_cast<std::uint32_t>(d3) & kLimb;
    d4 += d3 >> 26;
    h4 = static_cast<std::uint32_t>(d4) & kLimb;
    h0 += static_cast<std::uint32_t>(d4 >> 26) * 5;
    h1 += h0 >> 26;
    h0 &= kLimb;
  }
  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
  h_[3] = h3;
  h_[4] = h4;
}

void Poly1305::update(std::span<const std::byte> data) {
  if (data.empty()) return;
  const auto* m = reinterpret_cast<const std::uint8_t*>(data.data());
  std::size_t n = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min(n, kBlockSize - buffered_);
    std::memcpy(buffer_ + buffered_, m, take);
    buffered_ += take;
    m += take;
    n -= take;
    if (buffered_ < kBlockSize) return;
    blocks(buffer_, kBlockSize, 1u << 24);
    buffered_ = 0;
  }
  const std::size_t whole = n & ~(kBlockSize - 1);
  blocks(m, whole, 1u << 24);
  std::memcpy(buffer_, m + whole, n - whole);
  buffered_ = n - whole;
}

void Poly1305::pad16() {
  if (buffered_ == 0) return;
  std::memset(buffer_ + buffered_, 0, kBlockSize - buffered_);
  blocks(buffer_, kBlockSize, 1u << 24);
  buffered_ = 0;
}

Poly1305::Tag Poly1305::finish() {
  if (buffered_ > 0) {
    // A short final block carries its 2^(8*len) bit in the data itself.
    buffer_[buffered_] = 1;
    std::memset(buffer_ + buffered_ + 1, 0, kBlockSize - buffered_ - 1);
    blocks(buffer_, kBlockSize, 0);
    buffered_ = 0;
  }

  // Full carry.
  std::uint32_t h0 = h_[0], h1 = h_[1], h2 = h_[2], h3 = h_[3], h4 = h_[4];
  h2 += h1 >> 26;
  h1 &= kLimb;
  h3 += h2 >> 26;
  h2 &= kLimb;
  h4 += h3 >> 26;
  h3 &= kLimb;
  h0 += (h4 >> 26) * 5;
  h4 &= kLimb;
  h1 += h0 >> 26;
  h0 &= kLimb;

  // g = h - p = h + 5 - 2^130; keep g when it does not underflow (h >= p).
  std::uint32_t g0 = h0 + 5;
  std::uint32_t g1 = h1 + (g0 >> 26);
  g0 &= kLimb;
  std::uint32_t g2 = h2 + (g1 >> 26);
  g1 &= kLimb;
  std::uint32_t g3 = h3 + (g2 >> 26);
  g2 &= kLimb;
  std::uint32_t g4 = h4 + (g3 >> 26) - (1u << 26);
  g3 &= kLimb;
  const std::uint32_t use_g = (g4 >> 31) - 1;  // all ones iff no underflow
  h0 = (h0 & ~use_g) | (g0 & use_g);
  h1 = (h1 & ~use_g) | (g1 & use_g);
  h2 = (h2 & ~use_g) | (g2 & use_g);
  h3 = (h3 & ~use_g) | (g3 & use_g);
  h4 = (h4 & ~use_g) | (g4 & use_g);

  // tag = (h + s) mod 2^128, repacked into 32-bit words.
  const std::uint32_t w[4] = {h0 | (h1 << 26), (h1 >> 6) | (h2 << 20),
                              (h2 >> 12) | (h3 << 14), (h3 >> 18) | (h4 << 8)};
  Tag tag;
  std::uint64_t f = 0;
  for (int i = 0; i < 4; ++i) {
    f = std::uint64_t{w[i]} + pad_[i] + (f >> 32);
    for (int b = 0; b < 4; ++b) {
      tag[static_cast<std::size_t>(4 * i + b)] =
          static_cast<std::uint8_t>(f >> (8 * b));
    }
  }
  return tag;
}

Poly1305::Tag Poly1305::mac(const Key& key, std::span<const std::byte> data) {
  Poly1305 p(key);
  p.update(data);
  return p.finish();
}

}  // namespace sdvm::crypto
