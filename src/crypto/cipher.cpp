#include "crypto/cipher.hpp"

#include <cstring>

namespace sdvm::crypto {

namespace {

std::span<const std::byte> as_bytes(const std::uint8_t* p, std::size_t n) {
  return {reinterpret_cast<const std::byte*>(p), n};
}

ChaCha20::Key to_key(const Sha256::Digest& digest) {
  ChaCha20::Key key;
  std::memcpy(key.data(), digest.data(), key.size());
  return key;
}

/// The RFC 8439 §2.8 tag over aad and ciphertext, keyed by ChaCha20 block 0.
Poly1305::Tag aead_tag(const ChaCha20::Key& key, const ChaCha20::Nonce& nonce,
                       std::span<const std::byte> aad,
                       std::span<const std::byte> ciphertext) {
  const auto block0 = ChaCha20::block(key, nonce, /*counter=*/0);
  Poly1305::Key one_time;
  std::memcpy(one_time.data(), block0.data(), one_time.size());
  Poly1305 mac(one_time);
  mac.update(aad);
  mac.pad16();
  mac.update(ciphertext);
  mac.pad16();
  std::uint8_t lengths[16];
  const std::uint64_t aad_len = aad.size(), text_len = ciphertext.size();
  for (int i = 0; i < 8; ++i) {
    lengths[i] = static_cast<std::uint8_t>(aad_len >> (8 * i));
    lengths[8 + i] = static_cast<std::uint8_t>(text_len >> (8 * i));
  }
  mac.update(as_bytes(lengths, sizeof(lengths)));
  return mac.finish();
}

}  // namespace

ChaCha20::Key derive_master_key(std::string_view password) {
  return to_key(hmac_sha256(
      as_bytes(reinterpret_cast<const std::uint8_t*>(password.data()),
               password.size()),
      as_bytes(reinterpret_cast<const std::uint8_t*>("sdvm-master"), 11)));
}

ChaCha20::Key derive_direction_key(const ChaCha20::Key& master, SiteId src,
                                   SiteId dst) {
  std::uint8_t info[8];
  for (int i = 0; i < 4; ++i) {
    info[i] = static_cast<std::uint8_t>(src >> (8 * i));
    info[4 + i] = static_cast<std::uint8_t>(dst >> (8 * i));
  }
  return to_key(hmac_sha256(as_bytes(master.data(), master.size()),
                            as_bytes(info, sizeof(info))));
}

void seal_into(const ChaCha20::Key& key, const ChaCha20::Nonce& nonce,
               std::span<const std::byte> aad, std::span<const std::byte> plain,
               std::span<std::byte> out) {
  std::memcpy(out.data(), nonce.data(), nonce.size());
  const auto ciphertext = out.subspan(nonce.size(), plain.size());
  if (!plain.empty()) {
    std::memcpy(ciphertext.data(), plain.data(), plain.size());
  }
  ChaCha20::apply(key, nonce, /*counter=*/1, ciphertext);
  const auto tag = aead_tag(key, nonce, aad, ciphertext);
  std::memcpy(ciphertext.data() + ciphertext.size(), tag.data(), tag.size());
}

std::vector<std::byte> seal(const ChaCha20::Key& key,
                            const ChaCha20::Nonce& nonce,
                            std::span<const std::byte> aad,
                            std::span<const std::byte> plain) {
  std::vector<std::byte> out(kSealOverhead + plain.size());
  seal_into(key, nonce, aad, plain, out);
  return out;
}

Result<std::vector<std::byte>> open(const ChaCha20::Key& key,
                                    std::span<const std::byte> aad,
                                    std::span<const std::byte> sealed) {
  if (sealed.size() < kSealOverhead) {
    return Status::error(ErrorCode::kCorrupt, "sealed blob too short");
  }
  ChaCha20::Nonce nonce;
  std::memcpy(nonce.data(), sealed.data(), nonce.size());
  const auto ciphertext =
      sealed.subspan(nonce.size(), sealed.size() - kSealOverhead);
  const auto tag = aead_tag(key, nonce, aad, ciphertext);
  // Constant-time compare.
  const auto got = sealed.last(tag.size());
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < tag.size(); ++i) {
    diff |= tag[i] ^ static_cast<std::uint8_t>(got[i]);
  }
  if (diff != 0) {
    return Status::error(ErrorCode::kCorrupt, "tag mismatch");
  }

  std::vector<std::byte> plain(ciphertext.begin(), ciphertext.end());
  ChaCha20::apply(key, nonce, /*counter=*/1, plain);
  return plain;
}

}  // namespace sdvm::crypto
