// Authenticated link cipher used by the security manager.
//
// Scheme: per-cluster master key = HMAC(password, "sdvm-master"); one key per
// direction = HMAC(master, src || dst), so A->B and B->A never share a key.
// Messages are sealed with ChaCha20-Poly1305 (RFC 8439 §2.8): ChaCha20
// block 0 under (key, nonce) yields the one-time Poly1305 key, blocks 1..
// encrypt the body, and the tag covers the associated data (the wire
// header) and the ciphertext. The caller supplies a nonce that is unique
// per key. This mirrors the paper's security manager, where a start
// password supplied by hand bootstraps the encrypted channel.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/sha256.hpp"

namespace sdvm::crypto {

/// Bytes seal() adds to the plaintext: nonce(12) + tag(16).
inline constexpr std::size_t kSealOverhead =
    ChaCha20::kNonceSize + Poly1305::kTagSize;

/// Derives the cluster master key from the shared start password.
[[nodiscard]] ChaCha20::Key derive_master_key(std::string_view password);

/// Derives the key for messages sent from `src` to `dst`.
[[nodiscard]] ChaCha20::Key derive_direction_key(const ChaCha20::Key& master,
                                                 SiteId src, SiteId dst);

/// Seals plaintext into `out` (exactly plain.size() + kSealOverhead bytes,
/// not overlapping `plain`): [nonce(12) | ciphertext | tag(16)], with `aad`
/// authenticated but not carried. A nonce must never repeat under one key.
void seal_into(const ChaCha20::Key& key, const ChaCha20::Nonce& nonce,
               std::span<const std::byte> aad, std::span<const std::byte> plain,
               std::span<std::byte> out);

/// seal_into() a new buffer.
[[nodiscard]] std::vector<std::byte> seal(const ChaCha20::Key& key,
                                          const ChaCha20::Nonce& nonce,
                                          std::span<const std::byte> aad,
                                          std::span<const std::byte> plain);

/// Opens a sealed blob; fails with kCorrupt on a tag mismatch (wrong key,
/// altered nonce, ciphertext, tag or `aad`) or truncation.
[[nodiscard]] Result<std::vector<std::byte>> open(
    const ChaCha20::Key& key, std::span<const std::byte> aad,
    std::span<const std::byte> sealed);

}  // namespace sdvm::crypto
