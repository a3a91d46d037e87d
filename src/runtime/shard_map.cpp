#include "runtime/shard_map.hpp"

namespace sdvm {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

std::uint32_t checked_shard(ByteReader& r) {
  std::uint32_t shard = r.u32();
  if (shard >= kNumShards) throw DecodeError("shard id out of range");
  return shard;
}

std::uint64_t rendezvous_weight(std::uint32_t shard, SiteId id) {
  return fnv1a(fnv1a(kFnvOffset, shard), id);
}

// Strict ordering with id tiebreak keeps the argmax unique even under
// (astronomically unlikely) weight collisions.
bool outweighs(std::uint64_t w, SiteId id, std::uint64_t best_weight,
               SiteId best) {
  return best == kInvalidSite || w > best_weight ||
         (w == best_weight && id < best);
}

}  // namespace

std::uint32_t shard_of(GlobalAddress addr) {
  return static_cast<std::uint32_t>(fnv1a(kFnvOffset, addr.value) %
                                    kNumShards);
}

SiteId shard_target(std::uint32_t shard, const std::vector<SiteId>& live) {
  SiteId best = kInvalidSite;
  std::uint64_t best_weight = 0;
  for (SiteId id : live) {
    if (id == kInvalidSite) continue;
    std::uint64_t w = rendezvous_weight(shard, id);
    if (outweighs(w, id, best_weight, best)) {
      best = id;
      best_weight = w;
    }
  }
  return best;
}

void ShardTargets::challenge(std::uint32_t shard, SiteId id) {
  ++weight_evals_;
  const std::uint64_t w = rendezvous_weight(shard, id);
  Winner& cur = targets_[shard];
  if (outweighs(w, id, cur.weight, cur.id)) cur = Winner{id, w};
}

void ShardTargets::add(SiteId id) {
  if (id == kInvalidSite) return;
  for (std::uint32_t s = 0; s < kNumShards; ++s) challenge(s, id);
}

void ShardTargets::remove(SiteId id, const std::vector<SiteId>& live) {
  for (std::uint32_t s = 0; s < kNumShards; ++s) {
    if (targets_[s].id != id) continue;
    targets_[s] = Winner{};
    for (SiteId other : live) {
      if (other != kInvalidSite) challenge(s, other);
    }
  }
}

// ---------------------------------------------------------------------------
// Wire payloads
// ---------------------------------------------------------------------------

void ShardLeaseAnnounce::serialize(ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const Entry& e : entries) {
    w.u32(e.shard);
    w.site(e.holder);
    w.u64(e.epoch);
  }
}

Result<ShardLeaseAnnounce> ShardLeaseAnnounce::deserialize(ByteReader& r) {
  try {
    ShardLeaseAnnounce a;
    std::uint32_t n = r.count(/*min_bytes_each=*/16);
    a.entries.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      Entry e;
      e.shard = checked_shard(r);
      e.holder = r.site();
      e.epoch = r.u64();
      a.entries.push_back(e);
    }
    return a;
  } catch (const DecodeError& e) {
    return Status::error(ErrorCode::kCorrupt,
                         std::string("bad ShardLeaseAnnounce: ") + e.what());
  }
}

namespace {

void serialize_entries(ByteWriter& w, const std::vector<ShardDirEntry>& es) {
  w.u32(static_cast<std::uint32_t>(es.size()));
  for (const ShardDirEntry& e : es) {
    w.address(e.addr);
    w.site(e.owner);
    w.program(e.program);
  }
}

std::vector<ShardDirEntry> deserialize_entries(ByteReader& r) {
  std::uint32_t n = r.count(/*min_bytes_each=*/20);
  std::vector<ShardDirEntry> es;
  es.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ShardDirEntry e;
    e.addr = r.address();
    e.owner = r.site();
    e.program = r.program();
    es.push_back(e);
  }
  return es;
}

}  // namespace

void ShardHandoff::serialize(ByteWriter& w) const {
  w.u32(shard);
  w.u64(epoch);
  serialize_entries(w, entries);
}

Result<ShardHandoff> ShardHandoff::deserialize(ByteReader& r) {
  try {
    ShardHandoff h;
    h.shard = checked_shard(r);
    h.epoch = r.u64();
    h.entries = deserialize_entries(r);
    return h;
  } catch (const DecodeError& e) {
    return Status::error(ErrorCode::kCorrupt,
                         std::string("bad ShardHandoff: ") + e.what());
  }
}

void ShardRecover::serialize(ByteWriter& w) const {
  w.u32(shard);
  w.u64(epoch);
}

Result<ShardRecover> ShardRecover::deserialize(ByteReader& r) {
  try {
    ShardRecover s;
    s.shard = checked_shard(r);
    s.epoch = r.u64();
    return s;
  } catch (const DecodeError& e) {
    return Status::error(ErrorCode::kCorrupt,
                         std::string("bad ShardRecover: ") + e.what());
  }
}

void ShardRecoverReply::serialize(ByteWriter& w) const {
  w.u32(shard);
  w.u64(epoch);
  serialize_entries(w, entries);
}

Result<ShardRecoverReply> ShardRecoverReply::deserialize(ByteReader& r) {
  try {
    ShardRecoverReply s;
    s.shard = checked_shard(r);
    s.epoch = r.u64();
    s.entries = deserialize_entries(r);
    return s;
  } catch (const DecodeError& e) {
    return Status::error(ErrorCode::kCorrupt,
                         std::string("bad ShardRecoverReply: ") + e.what());
  }
}

void ShardRegister::serialize(ByteWriter& w) const {
  w.address(addr);
  w.program(program);
  w.site(owner);
}

Result<ShardRegister> ShardRegister::deserialize(ByteReader& r) {
  try {
    ShardRegister s;
    s.addr = r.address();
    s.program = r.program();
    s.owner = r.site();
    return s;
  } catch (const DecodeError& e) {
    return Status::error(ErrorCode::kCorrupt,
                         std::string("bad ShardRegister: ") + e.what());
  }
}

void ShardStale::serialize(ByteWriter& w) const {
  w.u32(shard);
  w.site(holder);
  w.u64(epoch);
}

Result<ShardStale> ShardStale::deserialize(ByteReader& r) {
  try {
    ShardStale s;
    s.shard = checked_shard(r);
    s.holder = r.site();
    s.epoch = r.u64();
    return s;
  } catch (const DecodeError& e) {
    return Status::error(ErrorCode::kCorrupt,
                         std::string("bad ShardStale: ") + e.what());
  }
}

void ShardRoutedRequest::serialize(ByteWriter& w) const {
  w.address(addr);
  w.u32(shard);
  w.u64(epoch);
}

Result<ShardRoutedRequest> ShardRoutedRequest::deserialize(ByteReader& r) {
  try {
    ShardRoutedRequest s;
    s.addr = r.address();
    s.shard = checked_shard(r);
    s.epoch = r.u64();
    return s;
  } catch (const DecodeError& e) {
    return Status::error(ErrorCode::kCorrupt,
                         std::string("bad ShardRoutedRequest: ") + e.what());
  }
}

}  // namespace sdvm
