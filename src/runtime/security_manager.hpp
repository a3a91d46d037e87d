// Security manager: "placed between the message manager and the network
// manager ... it encrypts all outgoing data before it is delivered by the
// network manager, and decrypts all incoming traffic as well" (paper §4).
// Keys bootstrap from the shared start password; per-pair session keys are
// derived from the master key. For "insular" clusters it can be disabled
// in favour of a performance gain — bench/ablation_encryption measures it.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "crypto/cipher.hpp"
#include "runtime/message.hpp"
#include "runtime/metrics.hpp"

namespace sdvm {

class SecurityManager {
 public:
  explicit SecurityManager(const SiteConfig& config);

  void set_local_site(SiteId id) { local_ = id; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Wraps a message body into the wire frame:
  /// [version u8 | flags u8 | src u32 | dst u32 | body (sealed if enabled)].
  [[nodiscard]] std::vector<std::byte> protect(const SdMessage& msg);

  /// Parses (and decrypts, if flagged) a wire frame. Rejects MAC failures
  /// and version mismatches with kCorrupt — "protection against spying and
  /// corruption".
  [[nodiscard]] Result<SdMessage> unprotect(std::span<const std::byte> wire);

  /// Registers this manager's instruments ("sec." prefix).
  void register_metrics(metrics::MetricsRegistry& registry);

 private:
  [[nodiscard]] const crypto::ChaCha20::Key& pair_key(SiteId a, SiteId b);

  static constexpr std::uint8_t kVersion = 1;
  static constexpr std::uint8_t kFlagSealed = 0x01;

  bool enabled_;
  SiteId local_ = kInvalidSite;
  crypto::ChaCha20::Key master_;
  std::uint64_t nonce_seed_ = 0;
  std::unordered_map<std::uint64_t, crypto::ChaCha20::Key> pair_keys_;

  // Instruments (read "sec.*" through Site::introspect()).
  metrics::Counter sealed_;
  metrics::Counter opened_;
  metrics::Counter rejected_;
};

}  // namespace sdvm
