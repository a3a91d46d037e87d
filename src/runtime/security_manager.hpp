// Security manager: "placed between the message manager and the network
// manager ... it encrypts all outgoing data before it is delivered by the
// network manager, and decrypts all incoming traffic as well" (paper §4).
// Keys bootstrap from the shared start password; each direction src -> dst
// has its own key derived from the master key, and each sealed message a
// nonce of this manager's random salt and that direction's message count.
// For "insular" clusters it can be disabled in favour of a performance
// gain — bench/ablation_encryption measures it.
#pragma once

#include <cstdint>
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
  /// A sealed body is [nonce(12) | ciphertext | tag(16)], with the 10-byte
  /// header authenticated as associated data.
  [[nodiscard]] std::vector<std::byte> protect(const SdMessage& msg);

  /// Parses (and decrypts, if flagged) a wire frame. Rejects tag failures
  /// (which cover the header too) and version mismatches with kCorrupt —
  /// "protection against spying and corruption". Keeps no per-message
  /// state: replay protection belongs to a session layer.
  [[nodiscard]] Result<SdMessage> unprotect(std::span<const std::byte> wire);

  /// Registers this manager's instruments ("sec." prefix).
  void register_metrics(metrics::MetricsRegistry& registry);

 private:
  /// One direction src -> dst: its key and the messages sealed on it.
  struct Direction {
    crypto::ChaCha20::Key key;
    std::uint64_t sealed = 0;
  };

  /// The direction src -> dst, derived and cached on first use.
  [[nodiscard]] Direction& direction(SiteId src, SiteId dst);

  static constexpr std::uint8_t kVersion = 2;
  static constexpr std::uint8_t kFlagSealed = 0x01;

  bool enabled_;
  SiteId local_ = kInvalidSite;
  crypto::ChaCha20::Key master_;
  // Nonce = salt (4 bytes) || the direction's sealed count (8 bytes). The
  // salt keeps a restarted daemon, whose counts start again at zero, from
  // repeating its earlier nonces.
  std::uint32_t salt_;
  std::unordered_map<std::uint64_t, Direction> directions_;

  // Instruments (read "sec.*" through Site::introspect()).
  metrics::Counter sealed_;
  metrics::Counter opened_;
  metrics::Counter rejected_;
};

}  // namespace sdvm
