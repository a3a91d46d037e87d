// SHA-256 (FIPS 180-4), implemented from scratch for the security manager's
// key derivation (HMAC-SHA256, once per peer direction; messages are
// authenticated with Poly1305). Validated against NIST vectors
// in tests/crypto_test.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace sdvm::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256() { reset(); }

  void reset();
  void update(std::span<const std::byte> data);
  void update(std::string_view s) {
    update(std::span{reinterpret_cast<const std::byte*>(s.data()), s.size()});
  }
  [[nodiscard]] Digest finish();

  /// One-shot convenience.
  [[nodiscard]] static Digest hash(std::span<const std::byte> data) {
    Sha256 h;
    h.update(data);
    return h.finish();
  }
  [[nodiscard]] static Digest hash(std::string_view s) {
    Sha256 h;
    h.update(s);
    return h.finish();
  }

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::uint64_t total_bytes_ = 0;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffered_ = 0;
};

/// HMAC-SHA256 (RFC 2104).
[[nodiscard]] Sha256::Digest hmac_sha256(std::span<const std::byte> key,
                                         std::span<const std::byte> message);

[[nodiscard]] std::string hex(std::span<const std::uint8_t> bytes);

}  // namespace sdvm::crypto
