// Poly1305 one-time authenticator (RFC 8439 §2.5), the MAC half of the
// security manager's ChaCha20-Poly1305 seal. Portable 26-bit limbs with
// 64-bit products; no table lookups or secret-dependent branches.
// Validated against the RFC 8439 test vector in tests/crypto_test.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace sdvm::crypto {

class Poly1305 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kTagSize = 16;
  static constexpr std::size_t kBlockSize = 16;
  using Key = std::array<std::uint8_t, kKeySize>;
  using Tag = std::array<std::uint8_t, kTagSize>;

  /// `key` is r || s and must never authenticate two messages.
  explicit Poly1305(const Key& key);

  void update(std::span<const std::byte> data);
  /// Feeds zero bytes up to the next 16-byte boundary (the AEAD's pad16).
  void pad16();
  [[nodiscard]] Tag finish();

  /// One-shot convenience.
  [[nodiscard]] static Tag mac(const Key& key, std::span<const std::byte> data);

 private:
  void blocks(const std::uint8_t* m, std::size_t bytes, std::uint32_t hibit);

  std::uint32_t r_[5];
  std::uint32_t h_[5] = {0, 0, 0, 0, 0};
  std::uint32_t pad_[4];
  std::uint8_t buffer_[kBlockSize];
  std::size_t buffered_ = 0;
};

}  // namespace sdvm::crypto
