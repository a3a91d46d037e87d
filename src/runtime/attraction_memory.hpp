// Attraction memory: the COMA-style global memory (paper §3.1, §4). Holds
// the local part of the global memory, attracts requested objects to the
// local site transparently, and stores microframes until they have
// received all their parameters.
//
// The object directory is hash-sharded across the live membership
// (shard_map.hpp): each of the kNumShards logical shards has exactly one
// authoritative holder, guarded by an epoch-numbered ownership lease.
// Migration stays mediated (request → recall → grant), but the mediator
// for an object is its shard's lease holder, not the creating site — so
// directory authority survives the death of any single site. Requests
// carry the (shard, epoch) the sender believes; a non-authoritative
// receiver rejects with kShardStale and the sender re-routes — stale
// authority is never silently served. Shard handoff is a first-class
// protocol: graceful departure and remigration transfer entries with a
// bumped epoch (kShardHandoff); a crashed holder triggers deterministic
// successor takeover plus a rebuild from live-site re-registration
// (kShardRecover) and checkpoint restore. Microframes are not sharded:
// they keep living at their creating site, reached through the existing
// home-site + sign-off successor-chain routing.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "runtime/frame.hpp"
#include "runtime/message.hpp"
#include "runtime/metrics.hpp"
#include "runtime/processing_manager.hpp"
#include "runtime/shard_map.hpp"

namespace sdvm {

class Site;

/// A migratable global-memory object: an array of int64 words.
struct MemObject {
  GlobalAddress addr;
  ProgramId program;
  std::vector<std::int64_t> words;

  void serialize(ByteWriter& w) const {
    w.address(addr);
    w.program(program);
    w.u32(static_cast<std::uint32_t>(words.size()));
    for (auto v : words) w.i64(v);
  }
  static Result<MemObject> deserialize(ByteReader& r) {
    try {
      MemObject o;
      o.addr = r.address();
      o.program = r.program();
      std::uint32_t n = r.count(/*min_bytes_each=*/8);
      o.words.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) o.words.push_back(r.i64());
      return o;
    } catch (const DecodeError& e) {
      return Status::error(ErrorCode::kCorrupt,
                           std::string("bad MemObject: ") + e.what());
    }
  }
};

class AttractionMemory {
 public:
  explicit AttractionMemory(Site& site) : site_(site) {}

  // --- microframes ---------------------------------------------------------
  /// Allocates a frame homed at the local site. If nparams == 0 the frame
  /// is immediately executable and goes straight to the scheduler.
  FrameId create_frame(ProgramId pid, MicrothreadId tid, std::size_t nparams,
                       int priority);

  /// Applies a parameter: locally if the frame lives here, otherwise an
  /// kApplyParam message travels to the frame's homesite. When the last
  /// parameter arrives the frame is handed to the scheduling manager.
  Status apply_param(GlobalAddress frame, std::size_t slot,
                     std::vector<std::byte> value);

  /// Takes an executable frame out of the store for the scheduler (the
  /// frame's "career" step from attraction memory to scheduling manager).
  [[nodiscard]] Result<Microframe> take_frame(FrameId id);

  /// Re-registers a frame received from another site (help reply): we are
  /// not its homesite, but it is executable and will be consumed here.
  void adopt_frame(Microframe frame);

  // --- global memory objects -------------------------------------------------
  GlobalAddress alloc_object(ProgramId pid, std::int64_t nwords);

  /// Word access from a running microthread: attracts the object here,
  /// parking the microthread while it travels. The pointer stays valid
  /// until the microthread parks again.
  Result<std::int64_t*> word(GlobalAddress addr, std::int64_t index);

  /// Direct access for checkpointing (object must be local).
  [[nodiscard]] MemObject* local_object(GlobalAddress addr);
  [[nodiscard]] bool owns(GlobalAddress addr) const;
  void install_object(MemObject obj);  // migration / recovery
  /// Hands a local object over to another site (migration grant or
  /// recall): removes it here and counts the migration out.
  [[nodiscard]] MemObject give_away(GlobalAddress addr);
  [[nodiscard]] SiteId directory_owner(GlobalAddress addr) const;

  void handle(const SdMessage& msg);
  void drop_program(ProgramId pid);

  // --- sharded directory ----------------------------------------------------
  /// Periodic lease maintenance, driven from Site::bootstrap_tick at
  /// heartbeat cadence: renews held leases, remigrates shards whose
  /// rendezvous target moved, takes over shards whose holder died, times
  /// out rebuilds, and purges parked requests past their TTL.
  void shard_tick();

  /// The live-membership view changed (join, death, sign-off): settles
  /// leases immediately so authority gaps close without waiting for the
  /// next tick.
  void on_membership_change();
  /// Site `id` entered (`alive`) or left the cluster manager's live view:
  /// the rendezvous targets follow that one change.
  void track_live(SiteId id, bool alive);

  /// Where requests for `addr` should be sent right now: the shard's lease
  /// holder if it is believed alive, else the computed rendezvous target.
  [[nodiscard]] SiteId shard_route(GlobalAddress addr);
  /// The shard's rendezvous target over the cluster manager's live view.
  [[nodiscard]] SiteId rendezvous_target(std::uint32_t shard) const {
    return shard_targets_.target(shard);
  }

  /// True iff this site may answer authoritatively for the shard: it holds
  /// the lease AND its maintenance tick is current (a site whose tick has
  /// stalled past the lease TTL cannot have renewed and must stop
  /// answering — the split-brain guard).
  [[nodiscard]] bool shard_authoritative(std::uint32_t shard) const;

  /// Snapshot of the local lease table (invariant checkers).
  [[nodiscard]] std::array<ShardLease, kNumShards> shard_leases() const {
    return leases_;
  }
  [[nodiscard]] std::size_t shards_held() const;

  /// Highest lease epoch ever observed for the shard. Persisted with
  /// durable checkpoints; seeded on recovery so post-restart epochs never
  /// regress below what the failed cluster had reached.
  [[nodiscard]] std::uint64_t max_shard_epoch(std::uint32_t shard) const {
    return shard < kNumShards ? max_epoch_seen_[shard] : 0;
  }
  void seed_shard_epoch(std::uint32_t shard, std::uint64_t epoch) {
    if (shard < kNumShards && epoch > max_epoch_seen_[shard]) {
      max_epoch_seen_[shard] = epoch;
    }
  }

  // --- sign-off / checkpoint support ----------------------------------------
  /// Serializes everything (frames incl. state, objects, directory) for a
  /// program — used by checkpointing (all programs: pass kInvalid).
  [[nodiscard]] std::vector<std::byte> snapshot(ProgramId pid) const;
  void restore_snapshot(ByteReader& r);
  /// Moves all local state to `successor` on graceful sign-off.
  void relocate_all_to(SiteId successor);

  // --- introspection -----------------------------------------------------
  [[nodiscard]] std::size_t frame_count() const { return frames_.size(); }
  [[nodiscard]] std::size_t object_count() const { return objects_.size(); }

  /// Homesite-directory snapshot: (address, current owner) for every
  /// object created here. Chaos invariant checkers use this to assert
  /// that no global address is owned by a departed site.
  [[nodiscard]] std::vector<std::pair<GlobalAddress, SiteId>>
  directory_snapshot() const {
    std::vector<std::pair<GlobalAddress, SiteId>> out;
    out.reserve(directory_.size());
    for (const auto& [addr, entry] : directory_) {
      out.emplace_back(addr, entry.owner);
    }
    return out;
  }

  /// Addresses of objects physically resident on this site (chaos
  /// invariant checkers: every owned object must be registered with a
  /// live shard holder — the no-orphan check across handoffs).
  [[nodiscard]] std::vector<GlobalAddress> owned_addresses() const {
    std::vector<GlobalAddress> out;
    out.reserve(objects_.size());
    for (const auto& [addr, obj] : objects_) out.push_back(addr);
    return out;
  }

  /// Registers this manager's instruments ("mem." prefix).
  void register_metrics(metrics::MetricsRegistry& registry);

 private:
  // Instruments (read "mem.* / dir.*" through Site::introspect()).
  metrics::Counter migrations_in_;
  metrics::Counter migrations_out_;
  metrics::Counter local_hits_;
  metrics::Counter frames_created_;
  metrics::Counter params_applied_;
  metrics::Counter remote_fetches_;      // fetches that left the site
  // mutable: counted inside the const directory_owner() lookup.
  mutable metrics::Counter directory_lookups_;

  // Sharded-directory instruments ("dir." prefix).
  metrics::Counter shard_handoffs_;       // shards this site transferred away
  metrics::Counter lease_renewals_;       // per-tick renewals of held leases
  metrics::Counter stale_epoch_rejects_;  // routed requests rejected as stale

  /// Completion cell of a remote fetch: the microthreads that missed on
  /// the object park on it; the pump signals it on grant or failure.
  using FetchState = ProcessingManager::ParkCell;

  void frame_became_executable(Microframe frame);
  void begin_fetch(GlobalAddress addr);
  void grant_next(GlobalAddress addr);
  /// Completes a local fetch, holding the object for the microthreads the
  /// completion woke (see word()).
  void complete_fetch(FetchState& cell, GlobalAddress addr);
  void answer_recall(const SdMessage& msg, GlobalAddress addr);
  /// Ends a hold: answers the recalls it kept waiting and serves queued
  /// requests.
  void release_hold(GlobalAddress addr);

  Site& site_;
  std::uint64_t next_local_id_ = 1;

  std::unordered_map<FrameId, Microframe> frames_;
  std::unordered_map<GlobalAddress, MemObject> objects_;

  // Results that arrived for a frame homed here but not (yet) present.
  // During a graceful sign-off the relocated frame (kDirectoryImport) races
  // its own in-flight results; dropping the result would strand the frame
  // forever. Parked values are applied when the frame is adopted and
  // purged after a generous TTL (post-recovery duplicates are benign).
  struct PendingParam {
    std::uint32_t slot = 0;
    std::vector<std::byte> value;
    Nanos parked_at = 0;
  };
  std::unordered_map<FrameId, std::vector<PendingParam>> pending_params_;
  void park_param(GlobalAddress frame, std::size_t slot,
                  std::vector<std::byte> value);
  void purge_stale_params();

  // Homesite directory for objects created here: current owner site plus
  // the queue of sites waiting for migration (homesite-mediated protocol).
  struct Waiter {
    SiteId requester = kInvalidSite;
    std::uint64_t reply_seq = 0;                 // remote requester
    std::shared_ptr<FetchState> local;           // homesite's own fetch
  };
  struct DirEntry {
    SiteId owner = kInvalidSite;
    ProgramId program;
    std::deque<Waiter> waiters;
    bool recall_in_flight = false;
    int recall_misses = 0;  // consecutive misses from a live owner
  };
  std::unordered_map<GlobalAddress, DirEntry> directory_;

  // Fetches this site is waiting on, keyed by object address.
  std::unordered_map<GlobalAddress, std::shared_ptr<FetchState>> fetching_;

  // Fetched objects held for the microthreads their arrival woke: the
  // object leaves (recall answered, next waiter granted) only once all of
  // them have run again.
  struct Hold {
    std::size_t fibers = 0;
    std::vector<SdMessage> recalls;
  };
  std::unordered_map<GlobalAddress, Hold> held_;

  // --- sharded-directory state ---------------------------------------------
  // Routing/stale handling helpers (see attraction_memory.cpp).
  SiteId route_of(std::uint32_t shard);
  bool merge_lease(std::uint32_t shard, SiteId holder, std::uint64_t epoch);
  void settle_leases(bool announce_held = false);
  void announce_leases(const std::vector<ShardLeaseAnnounce::Entry>& entries);
  void graceful_handoff(std::uint32_t shard, SiteId target,
                        std::vector<ShardLeaseAnnounce::Entry>* announce);
  std::vector<ShardDirEntry> strip_shard(std::uint32_t shard,
                                         SiteId new_holder,
                                         std::uint64_t epoch);
  void abdicate_to(std::uint32_t shard, SiteId winner, std::uint64_t epoch);
  void take_over_shard(std::uint32_t shard, bool rebuild);
  void begin_rebuild(std::uint32_t shard);
  void complete_rebuild(std::uint32_t shard);
  std::uint64_t next_epoch(std::uint32_t shard) const;
  void send_register(GlobalAddress addr, ProgramId pid, SiteId owner,
                     SiteId route, std::uint8_t hops);
  /// Tells the shard holder that `owner` holds `addr`, or queues the entry
  /// for the tick while the route is unknown or points back at us.
  void register_with_holder(GlobalAddress addr, ProgramId pid, SiteId owner);
  /// Keeps an object that arrived unasked (relayed grant or return, recall
  /// answered after a handoff) and records our custody.
  void adopt_object(MemObject obj);
  void reject_stale(const SdMessage& msg, std::uint32_t shard);
  void park_remote(const SdMessage& msg, std::uint32_t shard, Nanos parked_at);
  void park_local_fetch(GlobalAddress addr);
  void drain_parked(std::uint32_t shard);
  void purge_parked();
  void retry_fetch(GlobalAddress addr, const std::string& why);
  void flush_pending_registers();
  void process_object_request(const SdMessage& msg, Nanos parked_at);
  void process_register(const SdMessage& msg, Nanos parked_at);

  // Per-shard ownership leases as this site believes them, plus the highest
  // epoch ever seen (monotonicity floor for takeovers and cold restarts).
  std::array<ShardLease, kNumShards> leases_{};
  std::array<std::uint64_t, kNumShards> max_epoch_seen_{};

  // Rendezvous targets over the cluster manager's live view, updated by
  // track_live at each join or leave.
  ShardTargets shard_targets_;
  Nanos last_shard_tick_ = 0;

  // Crash rebuild: after a takeover the new holder asks every live site to
  // re-register its physical objects; completion when all replied/failed
  // or the failure timeout fires.
  struct ShardRebuild {
    bool active = false;
    Nanos started_at = 0;
    std::uint64_t epoch = 0;
    std::size_t awaiting = 0;
  };
  std::array<ShardRebuild, kNumShards> rebuilds_{};
  Nanos last_rebuild_ns_ = 0;

  // Requests that arrived for a shard whose authority is in flux (handoff
  // or rebuild pending here): parked with their arrival time, reprocessed
  // when authority lands, answered kObjectMiss after the TTL.
  struct ParkedShardMsg {
    SdMessage msg;
    Nanos parked_at = 0;
  };
  std::array<std::deque<ParkedShardMsg>, kNumShards> parked_remote_;
  // Our own fetches waiting for shard authority to settle.
  std::unordered_map<GlobalAddress, Nanos> parked_local_;
  // Bounded kShardStale re-route retries per in-flight fetch.
  std::unordered_map<GlobalAddress, int> fetch_retries_;
  // Directory entries restored from a checkpoint (or allocated) while the
  // shard route was still unknown; flushed each tick.
  std::vector<ShardDirEntry> pending_registers_;
};

}  // namespace sdvm
