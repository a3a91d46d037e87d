#include "runtime/security_manager.hpp"

#include <cstring>
#include <random>

namespace sdvm {

namespace {

constexpr std::size_t kHeader = 1 + 1 + 4 + 4;

std::uint64_t direction_id(SiteId src, SiteId dst) {
  return (std::uint64_t{src} << 32) | dst;
}

}  // namespace

SecurityManager::SecurityManager(const SiteConfig& config)
    : enabled_(config.encrypt),
      master_(crypto::derive_master_key(config.cluster_password)),
      salt_(std::random_device{}()) {}

void SecurityManager::register_metrics(metrics::MetricsRegistry& registry) {
  registry.register_counter("sec.sealed", &sealed_);
  registry.register_counter("sec.opened", &opened_);
  registry.register_counter("sec.rejected", &rejected_);
}

SecurityManager::Direction& SecurityManager::direction(SiteId src,
                                                       SiteId dst) {
  const std::uint64_t id = direction_id(src, dst);
  auto it = directions_.find(id);
  if (it == directions_.end()) {
    it = directions_
             .emplace(id, Direction{crypto::derive_direction_key(master_, src,
                                                                 dst)})
             .first;
  }
  return it->second;
}

std::vector<std::byte> SecurityManager::protect(const SdMessage& msg) {
  const std::vector<std::byte> body = msg.serialize_body();

  // The frame is sized once and the body sealed straight into it.
  std::vector<std::byte> wire(kHeader + body.size() +
                              (enabled_ ? crypto::kSealOverhead : 0));
  wire[0] = std::byte{kVersion};
  wire[1] = std::byte{enabled_ ? kFlagSealed : std::uint8_t{0}};
  for (int i = 0; i < 4; ++i) {
    wire[static_cast<std::size_t>(2 + i)] =
        static_cast<std::byte>(msg.src >> (8 * i));
    wire[static_cast<std::size_t>(6 + i)] =
        static_cast<std::byte>(msg.dst >> (8 * i));
  }
  const auto header = std::span(wire).first(kHeader);
  const auto rest = std::span(wire).subspan(kHeader);
  if (!enabled_) {
    if (!body.empty()) std::memcpy(rest.data(), body.data(), body.size());
    return wire;
  }
  ++sealed_;
  Direction& d = direction(msg.src, msg.dst);
  const std::uint64_t count = d.sealed++;
  crypto::ChaCha20::Nonce nonce;
  for (int i = 0; i < 4; ++i) {
    nonce[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(salt_ >> (8 * i));
  }
  for (int i = 0; i < 8; ++i) {
    nonce[static_cast<std::size_t>(4 + i)] =
        static_cast<std::uint8_t>(count >> (8 * i));
  }
  // The header is authenticated as associated data.
  crypto::seal_into(d.key, nonce, header, body, rest);
  return wire;
}

Result<SdMessage> SecurityManager::unprotect(std::span<const std::byte> wire) {
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
    // A direction is cached only once a frame on it verifies, so forged
    // headers cannot grow the cache.
    const std::uint64_t id = direction_id(src, dst);
    const auto it = directions_.find(id);
    const crypto::ChaCha20::Key key =
        it != directions_.end()
            ? it->second.key
            : crypto::derive_direction_key(master_, src, dst);
    auto opened = crypto::open(key, wire.subspan(0, kHeader), body);
    if (!opened.is_ok()) {
      ++rejected_;
      return opened.status();
    }
    if (it == directions_.end()) directions_.emplace(id, Direction{key});
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
