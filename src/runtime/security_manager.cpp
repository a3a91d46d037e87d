#include "runtime/security_manager.hpp"

namespace sdvm {

SecurityManager::SecurityManager(const SiteConfig& config)
    : enabled_(config.encrypt),
      master_(crypto::derive_master_key(config.cluster_password)) {}

void SecurityManager::register_metrics(metrics::MetricsRegistry& registry) {
  registry.register_counter("sec.sealed", &sealed_);
  registry.register_counter("sec.opened", &opened_);
  registry.register_counter("sec.rejected", &rejected_);
}

const crypto::ChaCha20::Key& SecurityManager::pair_key(SiteId a, SiteId b) {
  if (a > b) std::swap(a, b);
  std::uint64_t key = (std::uint64_t{a} << 32) | b;
  auto it = pair_keys_.find(key);
  if (it == pair_keys_.end()) {
    it = pair_keys_.emplace(key, crypto::derive_pair_key(master_, a, b)).first;
  }
  return it->second;
}

std::vector<std::byte> SecurityManager::protect(const SdMessage& msg) {
  std::vector<std::byte> body = msg.serialize_body();

  ByteWriter w;
  w.u8(kVersion);
  w.u8(enabled_ ? kFlagSealed : 0);
  w.site(msg.src);
  w.site(msg.dst);
  if (enabled_) {
    ++sealed_;
    auto sealed =
        crypto::seal(pair_key(msg.src, msg.dst), ++nonce_seed_, body);
    w.raw(sealed.data(), sealed.size());
  } else {
    w.raw(body.data(), body.size());
  }
  return w.take();
}

Result<SdMessage> SecurityManager::unprotect(std::span<const std::byte> wire) {
  constexpr std::size_t kHeader = 1 + 1 + 4 + 4;
  if (wire.size() < kHeader) {
    ++rejected_;
    return Status::error(ErrorCode::kCorrupt, "wire frame too short");
  }
  ByteReader r(wire.subspan(0, kHeader));
  std::uint8_t version = r.u8();
  std::uint8_t flags = r.u8();
  SiteId src = r.site();
  SiteId dst = r.site();
  if (version != kVersion) {
    ++rejected_;
    return Status::error(ErrorCode::kCorrupt, "unknown wire version");
  }
  auto body = wire.subspan(kHeader);

  if ((flags & kFlagSealed) != 0) {
    // Accept sealed traffic even if we run unsealed ourselves — the peer
    // may enforce encryption; mixed clusters still must interoperate.
    auto opened = crypto::open(pair_key(src, dst), body);
    if (!opened.is_ok()) {
      ++rejected_;
      return opened.status();
    }
    ++opened_;
    return SdMessage::deserialize_body(src, dst, opened.value());
  }
  if (enabled_) {
    // We require encryption; a plaintext message from outside is rejected
    // (self-protection).
    ++rejected_;
    return Status::error(ErrorCode::kCorrupt,
                         "plaintext message on an encrypted cluster");
  }
  return SdMessage::deserialize_body(src, dst, body);
}

}  // namespace sdvm
