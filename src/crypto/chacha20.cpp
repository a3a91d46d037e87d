#include "crypto/chacha20.hpp"

#include <algorithm>
#include <cstring>

namespace sdvm::crypto {

namespace {

constexpr std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

// `inline` matters: GCC at -O2 otherwise keeps the eight calls per round,
// and the working words then live in memory instead of registers.
inline void quarter_round(std::uint32_t& a, std::uint32_t& b,
                          std::uint32_t& c, std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

std::uint32_t le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

using State = std::array<std::uint32_t, 16>;

State initial_state(const ChaCha20::Key& key, const ChaCha20::Nonce& nonce,
                    std::uint32_t counter) {
  State state;
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = le32(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = le32(nonce.data() + 4 * i);
  return state;
}

// The block function on `state`, written little-endian into `out`. The
// working words are named locals rather than an array so the compiler keeps
// all sixteen in registers through the 20 rounds.
void keystream_block(const State& state, std::uint8_t* out) {
  std::uint32_t x0 = state[0], x1 = state[1], x2 = state[2], x3 = state[3],
                x4 = state[4], x5 = state[5], x6 = state[6], x7 = state[7],
                x8 = state[8], x9 = state[9], x10 = state[10],
                x11 = state[11], x12 = state[12], x13 = state[13],
                x14 = state[14], x15 = state[15];
  for (int round = 0; round < 10; ++round) {
    quarter_round(x0, x4, x8, x12);
    quarter_round(x1, x5, x9, x13);
    quarter_round(x2, x6, x10, x14);
    quarter_round(x3, x7, x11, x15);
    quarter_round(x0, x5, x10, x15);
    quarter_round(x1, x6, x11, x12);
    quarter_round(x2, x7, x8, x13);
    quarter_round(x3, x4, x9, x14);
  }
  std::uint32_t x[16] = {x0, x1, x2,  x3,  x4,  x5,  x6,  x7,
                         x8, x9, x10, x11, x12, x13, x14, x15};
  // Add the input back before any byte store: `out` may alias `state`.
  for (std::size_t i = 0; i < 16; ++i) x[i] += state[i];
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t v = x[i];
    out[4 * i] = static_cast<std::uint8_t>(v);
    out[4 * i + 1] = static_cast<std::uint8_t>(v >> 8);
    out[4 * i + 2] = static_cast<std::uint8_t>(v >> 16);
    out[4 * i + 3] = static_cast<std::uint8_t>(v >> 24);
  }
}

}  // namespace

std::array<std::uint8_t, 64> ChaCha20::block(const Key& key,
                                             const Nonce& nonce,
                                             std::uint32_t counter) {
  std::array<std::uint8_t, 64> out;
  keystream_block(initial_state(key, nonce, counter), out.data());
  return out;
}

void ChaCha20::apply(const Key& key, const Nonce& nonce, std::uint32_t counter,
                     std::span<std::byte> data) {
  State state = initial_state(key, nonce, counter);
  std::uint8_t ks[64];
  for (std::size_t off = 0; off < data.size(); off += 64) {
    keystream_block(state, ks);
    ++state[12];
    std::byte* out = data.data() + off;
    const std::size_t n = std::min<std::size_t>(64, data.size() - off);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {  // a word at a time; memcpy keeps it legal
      std::uint64_t d, k;
      std::memcpy(&d, out + i, 8);
      std::memcpy(&k, ks + i, 8);
      d ^= k;
      std::memcpy(out + i, &d, 8);
    }
    for (; i < n; ++i) out[i] ^= std::byte{ks[i]};
  }
}

}  // namespace sdvm::crypto
