// Sharded homesite directory: the object directory is hash-partitioned
// into a fixed number of logical shards, each mapped onto the live
// membership with rendezvous (highest-random-weight) hashing — a
// consistent-hashing scheme, so a join/leave/crash only remigrates the
// shards whose argmax site changed, never the whole directory. Authority
// over a shard is an epoch-numbered ownership lease; the wire payloads for
// lease announcements, handoff, crash rebuild and stale-route rejection
// live here so they can be fuzzed and round-tripped in isolation.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/serialize.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace sdvm {

/// Number of logical directory shards. Fixed for the cluster lifetime;
/// small enough that per-shard state is negligible, large enough that a
/// membership change remigrates ~1/n of the directory per joined site.
inline constexpr std::uint32_t kNumShards = 16;

/// Shard of a global address (FNV-1a over the address bits). Every site
/// computes the same shard for the same address with no coordination.
[[nodiscard]] std::uint32_t shard_of(GlobalAddress addr);

/// Deterministic target holder for a shard given a set of live site ids:
/// rendezvous hashing picks argmax over hash(shard, site). Any two sites
/// with the same membership view agree on the target, and removing one
/// site only moves the shards whose argmax it was.
[[nodiscard]] SiteId shard_target(std::uint32_t shard,
                                  const std::vector<SiteId>& live);

/// Every shard's shard_target() over a live view the caller keeps, kept
/// current one join or leave at a time. A join challenges each shard's
/// winner (kNumShards weight evaluations); a leave recomputes only the
/// shards the leaver held. After any sequence of calls, target(s) equals
/// shard_target(s, view) for the view the calls describe.
class ShardTargets {
 public:
  /// `id` entered the view; call once per entry.
  void add(SiteId id);
  /// `id` left the view; `live` is the view without it.
  void remove(SiteId id, const std::vector<SiteId>& live);

  [[nodiscard]] SiteId target(std::uint32_t shard) const {
    return targets_[shard].id;
  }
  /// Rendezvous weight evaluations so far (the cost the class is built to
  /// bound; tests assert on it instead of on wall time).
  [[nodiscard]] std::uint64_t weight_evals() const { return weight_evals_; }

 private:
  struct Winner {
    SiteId id = kInvalidSite;
    std::uint64_t weight = 0;
  };
  /// Makes `id` the winner of `shard` if it beats the current one.
  void challenge(std::uint32_t shard, SiteId id);

  std::array<Winner, kNumShards> targets_;
  std::uint64_t weight_evals_ = 0;
};

/// One shard's ownership lease as a site currently believes it: who holds
/// the shard and at which epoch. Epochs only grow; a holder change always
/// comes with a strictly higher epoch (ties broken by lower site id), so
/// overlapping-authority claims are decidable from the numbers alone.
struct ShardLease {
  SiteId holder = kInvalidSite;
  std::uint64_t epoch = 0;
};

/// kShardLease payload: a batch of (shard, holder, epoch) announcements,
/// burst to every live site when leases change hands.
struct ShardLeaseAnnounce {
  struct Entry {
    std::uint32_t shard = 0;
    SiteId holder = kInvalidSite;
    std::uint64_t epoch = 0;
  };
  std::vector<Entry> entries;

  void serialize(ByteWriter& w) const;
  [[nodiscard]] static Result<ShardLeaseAnnounce> deserialize(ByteReader& r);
};

/// One directory entry riding a handoff or rebuild reply.
struct ShardDirEntry {
  GlobalAddress addr;
  SiteId owner = kInvalidSite;
  ProgramId program;
};

/// kShardHandoff payload: graceful authority transfer — the shard id, the
/// new lease epoch the receiver assumes, and the directory entries.
struct ShardHandoff {
  std::uint32_t shard = 0;
  std::uint64_t epoch = 0;
  std::vector<ShardDirEntry> entries;

  void serialize(ByteWriter& w) const;
  [[nodiscard]] static Result<ShardHandoff> deserialize(ByteReader& r);
};

/// kShardRecover payload: a crash successor at `epoch` asks every live
/// site to re-register what it knows of the shard.
struct ShardRecover {
  std::uint32_t shard = 0;
  std::uint64_t epoch = 0;

  void serialize(ByteWriter& w) const;
  [[nodiscard]] static Result<ShardRecover> deserialize(ByteReader& r);
};

/// kShardRecoverReply payload: the sender's contribution to a rebuild —
/// objects it physically owns plus stale directory entries it still held.
struct ShardRecoverReply {
  std::uint32_t shard = 0;
  std::uint64_t epoch = 0;
  std::vector<ShardDirEntry> entries;

  void serialize(ByteWriter& w) const;
  [[nodiscard]] static Result<ShardRecoverReply> deserialize(ByteReader& r);
};

/// kShardRegister payload: an allocator (or a restored snapshot) tells the
/// shard holder that `owner` physically holds `addr`.
struct ShardRegister {
  GlobalAddress addr;
  ProgramId program;
  SiteId owner = kInvalidSite;

  void serialize(ByteWriter& w) const;
  [[nodiscard]] static Result<ShardRegister> deserialize(ByteReader& r);
};

/// kShardStale payload: a shard-routed request reached a site that is not
/// (or no longer) authoritative; it answers with its best lease knowledge
/// so the requester can re-route. Never silently served.
struct ShardStale {
  std::uint32_t shard = 0;
  SiteId holder = kInvalidSite;
  std::uint64_t epoch = 0;

  void serialize(ByteWriter& w) const;
  [[nodiscard]] static Result<ShardStale> deserialize(ByteReader& r);
};

/// kObjectRequest payload with the shard route header: the address plus
/// the (shard, epoch) the requester believes authoritative. A receiver
/// whose lease disagrees rejects with kShardStale instead of serving.
struct ShardRoutedRequest {
  GlobalAddress addr;
  std::uint32_t shard = 0;
  std::uint64_t epoch = 0;

  void serialize(ByteWriter& w) const;
  [[nodiscard]] static Result<ShardRoutedRequest> deserialize(ByteReader& r);
};

}  // namespace sdvm
