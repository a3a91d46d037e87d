#include "runtime/crash_manager.hpp"

#include "runtime/site.hpp"

namespace sdvm {

// ---------------------------------------------------------------------------
// Shard serialization
// ---------------------------------------------------------------------------

std::vector<std::byte> CrashManager::make_shard(ProgramId pid) const {
  ByteWriter w;
  auto queued = site_.scheduling().snapshot_frames(pid);
  w.u32(static_cast<std::uint32_t>(queued.size()));
  for (const auto& f : queued) f.serialize(w);
  auto mem = site_.memory().snapshot(pid);
  w.raw(mem.data(), mem.size());
  SDVM_DEBUG(site_.tag()) << "shard for " << pid.value << ": "
                          << queued.size() << " queued frames, "
                          << site_.memory().frame_count()
                          << " stored frames total";
  return w.take();
}

void CrashManager::install_shard(ProgramId pid,
                                 std::span<const std::byte> shard) {
  (void)pid;
  try {
    ByteReader r(shard);
    std::uint32_t nqueued = r.count(/*min_bytes_each=*/8);
    for (std::uint32_t i = 0; i < nqueued; ++i) {
      auto f = Microframe::deserialize(r);
      if (f.is_ok()) site_.memory().adopt_frame(std::move(f).value());
    }
    site_.memory().restore_snapshot(r);
  } catch (const DecodeError& e) {
    SDVM_ERROR(site_.tag()) << "corrupt recovery shard: " << e.what();
  }
}

void CrashManager::clear_program_state(ProgramId pid) {
  site_.scheduling().clear_program_frames(pid);
  site_.memory().drop_program(pid);
}

// ---------------------------------------------------------------------------
// Durability plumbing
// ---------------------------------------------------------------------------

CheckpointStore* CrashManager::checkpoint_store() {
  if (!ckpt_checked_) {
    ckpt_checked_ = true;
    if (auto store = site_.state_store()) {
      ckpt_ = std::make_unique<CheckpointStore>(std::move(store));
    }
  }
  return ckpt_.get();
}

std::vector<SiteId> CrashManager::pick_holders(ProgramId pid) const {
  std::vector<SiteId> alive = site_.cluster().live_sites();
  std::erase(alive, site_.id());
  if (alive.empty()) return {};
  std::uint32_t k = site_.config().replication_factor;
  if (k == 0 || static_cast<std::size_t>(k) > alive.size() + 1) {
    return alive;  // replicate to every live site
  }
  if (k <= 1) return {};
  std::vector<SiteId> out;
  std::size_t start = static_cast<std::size_t>(pid.value % alive.size());
  for (std::size_t i = 0; i < alive.size() && out.size() < k - 1; ++i) {
    out.push_back(alive[(start + i) % alive.size()]);
  }
  return out;
}

DurableEpoch CrashManager::build_durable(
    ProgramId pid, std::uint64_t epoch,
    std::map<SiteId, std::vector<std::byte>> shards) {
  DurableEpoch d;
  d.pid = pid;
  d.epoch = epoch;
  d.shards = std::move(shards);
  if (const ProgramInfo* info = site_.programs().find(pid)) d.info = *info;
  d.info.id = pid;
  d.info.home_site = site_.id();
  d.sources = site_.code().export_sources(pid);
  d.io_log = site_.io().export_log(pid);
  // Directory-shard lease epochs ride every durable epoch: recovery seeds
  // them back so post-restart leases never regress below the failed
  // cluster's epochs (a handed-off shard survives a cold restart).
  for (std::uint32_t s = 0; s < kNumShards; ++s) {
    std::uint64_t e = site_.memory().max_shard_epoch(s);
    if (e > 0) d.shard_epochs[s] = e;
  }
  return d;
}

void CrashManager::persist_local(const DurableEpoch& snap) {
  auto* cs = checkpoint_store();
  if (cs == nullptr) return;
  Status st = cs->persist(snap);
  if (st.is_ok()) {
    ++replicas_persisted_;
  } else {
    SDVM_WARN(site_.tag()) << "persisting epoch " << snap.epoch
                           << " of program " << snap.pid.value
                           << " failed: " << st.to_string();
  }
}

void CrashManager::replicate(ProgramId pid, const DurableEpoch& snap) {
  auto hit = holders_.find(pid);
  if (hit == holders_.end() || hit->second.empty()) return;
  ByteWriter w;
  snap.serialize(w);
  // The full holder set (home included) rides along: after a home death
  // the lowest *live* site of this set takes over, no coordination needed.
  w.u32(static_cast<std::uint32_t>(hit->second.size() + 1));
  w.site(site_.id());
  for (SiteId sid : hit->second) w.site(sid);
  SdMessage msg;
  msg.src_mgr = msg.dst_mgr = ManagerId::kCrash;
  msg.type = MsgType::kCheckpointReplica;
  msg.program = pid;
  msg.payload = w.take();
  site_.messages().broadcast(msg, hit->second);
}

void CrashManager::on_program_started(ProgramId pid) {
  if (!site_.config().checkpoints_enabled) return;
  // Epoch-0 durability: before any checkpoint commits, the program's
  // initial state (info + sources) already has k copies, so a home death
  // in the first interval no longer loses the program.
  DurableEpoch d = build_durable(pid, /*epoch=*/0, {});
  holders_[pid] = pick_holders(pid);
  persist_local(d);
  replicate(pid, d);
}

// ---------------------------------------------------------------------------
// Coordinator: checkpoint rounds
// ---------------------------------------------------------------------------

void CrashManager::on_tick() {
  if (!site_.config().checkpoints_enabled || !site_.cluster().joined() ||
      site_.signed_off()) {
    return;
  }
  Nanos now = site_.clock().now();

  // Abort rounds that never completed (a participant died mid-round, or
  // the persist quorum never materialized).
  for (auto it = active_rounds_.begin(); it != active_rounds_.end();) {
    if (now - it->second.started >
        site_.config().heartbeat_interval * 20) {
      SDVM_WARN(site_.tag()) << "checkpoint round for program "
                             << it->first.value << " timed out, aborting"
                             << " (epoch " << it->second.epoch << ", frozen "
                             << it->second.frozen.size() << "/"
                             << it->second.expected.size() << ", shards "
                             << it->second.received.size() << ", acks "
                             << it->second.persist_acks.size() << ")";
      ByteWriter w;
      w.u64(it->second.epoch);
      for (SiteId sid : it->second.expected) {
        SdMessage msg;
        msg.dst = sid;
        msg.src_mgr = msg.dst_mgr = ManagerId::kCrash;
        msg.type = MsgType::kCheckpointCommit;
        msg.program = it->first;
        msg.payload = w.bytes();
        (void)site_.messages().send(std::move(msg));
      }
      it = active_rounds_.erase(it);
    } else {
      ++it;
    }
  }

  for (ProgramId pid : site_.programs().active_programs()) {
    const ProgramInfo* info = site_.programs().find(pid);
    if (info == nullptr) continue;
    // Coordinate by resolved home: a site that absorbed the program from
    // a gracefully departing coordinator inherits the checkpoint duty
    // even though the recorded home still names the departed site.
    if (site_.cluster().resolve_successor(info->home_site) != site_.id()) {
      continue;
    }
    // Keep the replica web current. Graceful sign-offs never run
    // on_site_dead, so the holder set can silently decay to departed
    // sites (or, right after an adoption, still be empty); re-pick
    // against the live membership and push the newest durable epoch at
    // whoever is new.
    // An adopter that held a replica of this program becomes coordinator
    // owning that epoch: seed committed_ from it so re-replication and
    // epoch numbering continue where the departed coordinator left off
    // instead of regressing to a fresh epoch-0 snapshot.
    if (!committed_.contains(pid)) {
      if (auto rit = replicas_.find(pid);
          rit != replicas_.end() && rit->second.epoch > 0) {
        DurableEpoch snap = rit->second;
        snap.info = *info;
        snap.info.home_site = site_.id();
        next_epoch_[pid] = std::max(next_epoch_[pid], snap.epoch);
        committed_[pid] = std::move(snap);
        replicas_.erase(pid);
        replica_home_.erase(pid);
        replica_peers_.erase(pid);
      }
    }
    std::vector<SiteId> fresh = pick_holders(pid);
    if (holders_[pid] != fresh) {
      holders_[pid] = std::move(fresh);
      if (auto cit = committed_.find(pid); cit != committed_.end()) {
        replicate(pid, cit->second);
      } else {
        DurableEpoch d = build_durable(pid, /*epoch=*/0, {});
        persist_local(d);
        replicate(pid, d);
      }
    }
    if (active_rounds_.contains(pid)) continue;
    auto last = last_checkpoint_.find(pid);
    Nanos base = last == last_checkpoint_.end() ? 0 : last->second;
    if (now - base >= site_.config().checkpoint_interval) {
      begin_checkpoint(pid);
    }
  }

  // Expire frozen rounds whose coordinator will never commit or abort
  // them (it died mid-round, or its abort broadcast was lost). Without
  // this a participant stays frozen forever: later rounds balance their
  // own freeze/commit pair, so the leaked depth never drains.
  expire_pending_shards([&](const PendingShard& p) {
    return now - p.frozen_at > site_.config().heartbeat_interval * 20;
  });

  // Participants may still owe frozen-acks (waiting for quiescence).
  try_ack_frozen();
}

template <typename Pred>
void CrashManager::expire_pending_shards(Pred pred) {
  bool changed = false;
  for (auto it = pending_shards_.begin(); it != pending_shards_.end();) {
    if (pred(*it)) {
      SDVM_WARN(site_.tag()) << "dropping stale frozen shard for program "
                             << it->pid.value << " epoch " << it->epoch
                             << " (coordinator " << it->coordinator << ")";
      it = pending_shards_.erase(it);
      --freeze_depth_;
      changed = true;
    } else {
      ++it;
    }
  }
  if (changed && freeze_depth_ <= 0) {
    freeze_depth_ = 0;
    site_.processing().set_frozen(false);
    site_.scheduling().set_frozen(false);
    site_.driver().request_wakeup(0);
  }
}

void CrashManager::begin_checkpoint(ProgramId pid) {
  Round round;
  round.epoch = ++next_epoch_[pid];
  round.expected = site_.cluster().live_sites();
  round.started = site_.clock().now();
  last_checkpoint_[pid] = round.started;  // rate-limit even on failure

  ByteWriter w;
  w.u64(round.epoch);
  std::vector<SiteId> expected = round.expected;
  // Register the round first: the loopback freeze to ourselves acks
  // synchronously and must find it.
  active_rounds_[pid] = std::move(round);
  for (SiteId sid : expected) {
    SdMessage msg;
    msg.dst = sid;
    msg.src_mgr = msg.dst_mgr = ManagerId::kCrash;
    msg.type = MsgType::kCheckpointFreeze;
    msg.program = pid;
    msg.payload = w.bytes();
    (void)site_.messages().send(std::move(msg));
  }
}

void CrashManager::maybe_commit(ProgramId pid) {
  auto it = active_rounds_.find(pid);
  if (it == active_rounds_.end()) return;
  Round& round = it->second;
  if (round.awaiting_quorum) return;
  if (round.received.size() < round.expected.size()) return;

  // All shards in: assemble the durable epoch, persist locally, fan out
  // replicas, and only commit once a quorum of the copies persisted.
  round.snap = build_durable(pid, round.epoch, round.received);
  round.awaiting_quorum = true;
  holders_[pid] = pick_holders(pid);
  persist_local(round.snap);
  round.persist_acks.insert(site_.id());
  replicate(pid, round.snap);
  maybe_finish_commit(pid);
}

void CrashManager::maybe_finish_commit(ProgramId pid) {
  auto it = active_rounds_.find(pid);
  if (it == active_rounds_.end() || !it->second.awaiting_quorum) return;
  Round& round = it->second;
  std::size_t copies = holders_[pid].size() + 1;
  std::size_t quorum = copies / 2 + 1;
  if (round.persist_acks.size() < quorum) return;

  committed_[pid] = std::move(round.snap);
  last_checkpoint_[pid] = site_.clock().now();
  ++checkpoints_committed_;

  ByteWriter w;
  w.u64(round.epoch);
  for (SiteId sid : round.expected) {
    SdMessage msg;
    msg.dst = sid;
    msg.src_mgr = msg.dst_mgr = ManagerId::kCrash;
    msg.type = MsgType::kCheckpointCommit;
    msg.program = pid;
    msg.payload = w.bytes();
    (void)site_.messages().send(std::move(msg));
  }
  SDVM_INFO(site_.tag()) << "checkpoint epoch " << round.epoch
                         << " committed for program " << pid.value << " ("
                         << round.persist_acks.size() << "/" << copies
                         << " copies persisted)";
  active_rounds_.erase(it);
}

// ---------------------------------------------------------------------------
// Participant: freeze / shard / commit / replica
// ---------------------------------------------------------------------------

void CrashManager::handle_freeze(const SdMessage& msg) {
  std::uint64_t epoch = 0;
  try {
    ByteReader r(msg.payload);
    epoch = r.u64();
  } catch (const DecodeError&) {
    return;
  }
  ++freeze_depth_;
  SDVM_DEBUG(site_.tag()) << "freeze epoch " << epoch << " from site "
                          << msg.src << " (depth " << freeze_depth_ << ")";
  site_.processing().set_frozen(true);
  site_.scheduling().set_frozen(true);
  pending_shards_.push_back(
      PendingShard{msg.program, epoch, msg.src, false, site_.clock().now()});
  try_ack_frozen();
}

void CrashManager::try_ack_frozen() {
  bool pending = false;
  for (auto& p : pending_shards_) {
    if (p.acked) continue;
    if (!site_.execution_quiesced()) {
      pending = true;
      continue;
    }
    p.acked = true;
    SDVM_DEBUG(site_.tag()) << "acking frozen epoch " << p.epoch
                            << " to site " << p.coordinator;
    ByteWriter w;
    w.u64(p.epoch);
    SdMessage msg;
    msg.dst = p.coordinator;
    msg.src_mgr = msg.dst_mgr = ManagerId::kCrash;
    msg.type = MsgType::kCheckpointFrozen;
    msg.program = p.pid;
    msg.payload = w.take();
    (void)site_.messages().send(std::move(msg));
  }
  if (pending) {
    SDVM_DEBUG(site_.tag()) << "not quiesced yet (running "
                            << site_.processing().running() << ", busy until "
                            << site_.sim_busy_until() << " vs now "
                            << site_.clock().now() << ")";
    site_.schedule_after(500'000, [this] { try_ack_frozen(); });
  }
}

void CrashManager::handle_take_shard(const SdMessage& msg) {
  std::uint64_t epoch = 0;
  try {
    ByteReader r(msg.payload);
    epoch = r.u64();
  } catch (const DecodeError&) {
    return;
  }
  for (const auto& p : pending_shards_) {
    if (p.pid != msg.program || p.epoch != epoch) continue;
    ByteWriter w;
    w.u64(epoch);
    w.blob(make_shard(p.pid));
    SdMessage reply;
    reply.dst = p.coordinator;
    reply.src_mgr = reply.dst_mgr = ManagerId::kCrash;
    reply.type = MsgType::kCheckpointData;
    reply.program = p.pid;
    reply.payload = w.take();
    (void)site_.messages().send(std::move(reply));
    return;
  }
}

void CrashManager::handle_commit(const SdMessage& msg) {
  std::uint64_t epoch = 0;
  try {
    ByteReader r(msg.payload);
    epoch = r.u64();
  } catch (const DecodeError&) {
    return;
  }
  for (auto it = pending_shards_.begin(); it != pending_shards_.end(); ++it) {
    if (it->pid == msg.program && it->epoch == epoch) {
      pending_shards_.erase(it);
      if (--freeze_depth_ <= 0) {
        freeze_depth_ = 0;
        site_.processing().set_frozen(false);
        site_.scheduling().set_frozen(false);
        site_.driver().request_wakeup(0);
      }
      return;
    }
  }
}

void CrashManager::handle_replica(const SdMessage& msg) {
  try {
    ByteReader r(msg.payload);
    auto parsed = DurableEpoch::deserialize(r);
    if (!parsed.is_ok()) {
      SDVM_WARN(site_.tag()) << "bad replica payload: "
                             << parsed.status().to_string();
      return;
    }
    std::uint32_t npeers = r.count(/*min_bytes_each=*/4);
    std::vector<SiteId> peers;
    peers.reserve(npeers);
    for (std::uint32_t i = 0; i < npeers; ++i) peers.push_back(r.site());

    DurableEpoch snap = std::move(parsed).value();
    snap.pid = msg.program;
    // A stale retransmit must never regress the replica we already hold.
    if (auto it = replicas_.find(msg.program);
        it != replicas_.end() && it->second.epoch > snap.epoch) {
      return;
    }
    for (const auto& [shard, epoch] : snap.shard_epochs) {
      site_.memory().seed_shard_epoch(shard, epoch);
    }
    site_.code().import_sources(msg.program, snap.sources);
    persist_local(snap);
    std::uint64_t epoch = snap.epoch;
    replicas_[msg.program] = std::move(snap);
    replica_home_[msg.program] = msg.src;
    replica_peers_[msg.program] = std::move(peers);

    // Ack regardless of having a store: an in-memory replica still counts
    // as a copy for the quorum (matches the paper's site-death model).
    ByteWriter w;
    w.u64(epoch);
    SdMessage ack;
    ack.dst = msg.src;
    ack.src_mgr = ack.dst_mgr = ManagerId::kCrash;
    ack.type = MsgType::kCheckpointReplicaAck;
    ack.program = msg.program;
    ack.payload = w.take();
    (void)site_.messages().send(std::move(ack));
  } catch (const DecodeError& e) {
    SDVM_WARN(site_.tag()) << "bad replica message: " << e.what();
  }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

void CrashManager::on_site_dead(SiteId dead) {
  // A site that gracefully signed off is no longer a member: its state
  // went to its successor, and taking over a program here would create a
  // second coordinator racing the one the live cluster elects.
  if (site_.signed_off()) return;
  // Programs we coordinate: roll back to the last committed epoch (or
  // restart from the initial state if none committed yet), and replace a
  // dead replica holder so the copy count holds.
  for (ProgramId pid : site_.programs().active_programs()) {
    const ProgramInfo* info = site_.programs().find(pid);
    if (info == nullptr) continue;
    // Resolve through the sign-off chain: a site that adopted the program
    // from a gracefully departing home coordinates it even though the
    // recorded home_site still names the departed site.
    if (site_.cluster().resolve_successor(info->home_site) == site_.id() &&
        site_.config().checkpoints_enabled) {
      begin_recovery(pid, dead);
      auto hit = holders_.find(pid);
      bool was_holder =
          hit != holders_.end() &&
          std::find(hit->second.begin(), hit->second.end(), dead) !=
              hit->second.end();
      holders_[pid] = pick_holders(pid);
      if (was_holder) {
        SDVM_INFO(site_.tag()) << "re-replicating program " << pid.value
                               << " after holder " << dead << " died";
        if (auto cit = committed_.find(pid); cit != committed_.end()) {
          replicate(pid, cit->second);
        } else {
          replicate(pid, build_durable(pid, /*epoch=*/0, {}));
        }
      }
    }
  }

  // Programs whose home just died and whose replica we hold: the lowest
  // live holder in the replicated peer set takes over. Every holder runs
  // the same rule on the same set, so exactly one wins.
  std::vector<ProgramId> takeovers;
  const ClusterManager& cluster = site_.cluster();
  for (const auto& [pid, home] : replica_home_) {
    // The coordinator that sent us the replica may have signed off since
    // (duties travel down the successor chain), or its designated
    // successor-by-takeover may itself have died before re-replicating.
    // Our copy is orphaned whenever the chain no longer ends at a live
    // member — re-evaluate on every death, not just the home's own.
    if (cluster.is_alive(cluster.resolve_successor(home))) continue;
    if (site_.programs().is_terminated(pid)) continue;
    SiteId min_live = site_.id();
    if (auto pit = replica_peers_.find(pid); pit != replica_peers_.end()) {
      for (SiteId peer : pit->second) {
        if (peer < min_live && cluster.is_alive(peer)) min_live = peer;
      }
    }
    if (min_live == site_.id()) takeovers.push_back(pid);
  }
  for (ProgramId pid : takeovers) {
    SDVM_WARN(site_.tag()) << "home of program " << pid.value
                           << " (site "
                           << site_.cluster().resolve_successor(
                                  replica_home_[pid])
                           << ") is gone; taking over from replica"
                           << " (epoch " << replicas_[pid].epoch << ")";
    DurableEpoch snap = replicas_[pid];
    take_over(pid, std::move(snap));
  }
}

void CrashManager::take_over(ProgramId pid, DurableEpoch snap) {
  for (const auto& [shard, epoch] : snap.shard_epochs) {
    site_.memory().seed_shard_epoch(shard, epoch);
  }
  SiteId old_home = snap.info.home_site;
  ProgramInfo info = snap.info;
  if (!info.id.valid()) {
    const ProgramInfo* known = site_.programs().find(pid);
    if (known == nullptr) return;
    info = *known;
    old_home = info.home_site;
  }
  info.id = pid;
  info.home_site = site_.id();
  site_.programs().register_info(info);
  site_.code().import_sources(pid, snap.sources);
  site_.io().import_log(pid, snap.io_log);
  next_epoch_[pid] = std::max(next_epoch_[pid], snap.epoch);
  replicas_.erase(pid);
  replica_home_.erase(pid);
  replica_peers_.erase(pid);
  if (snap.epoch > 0) {
    snap.info = info;
    committed_[pid] = std::move(snap);
  } else {
    committed_.erase(pid);
  }
  holders_[pid] = pick_holders(pid);
  begin_recovery(pid, old_home);
  // The new holder set needs the snapshot promptly — the old set may have
  // died with the home — and the new home's own disk wants it too.
  if (auto cit = committed_.find(pid); cit != committed_.end()) {
    persist_local(cit->second);
    replicate(pid, cit->second);
  } else {
    DurableEpoch e0 = build_durable(pid, /*epoch=*/0, {});
    persist_local(e0);
    replicate(pid, e0);
  }
}

void CrashManager::begin_recovery(ProgramId pid, SiteId dead) {
  // No committed epoch yet → "epoch 0": the initial state (the entry
  // microframe) is always reconstructible at the home site, so the
  // program restarts from scratch rather than hanging with lost frames.
  DurableEpoch epoch0;
  auto snap_it = committed_.find(pid);
  const DurableEpoch& snap =
      snap_it == committed_.end() ? epoch0 : snap_it->second;
  ++recoveries_;
  SDVM_WARN(site_.tag()) << "recovering program " << pid.value
                         << " from epoch " << snap.epoch << " after site "
                         << dead << " died";

  const ProgramInfo* info = site_.programs().find(pid);
  if (info == nullptr) return;

  ClusterManager& cluster = site_.cluster();
  // Our own restore below runs synchronously (loopback) while we walk the
  // membership, so walk a copy.
  const std::vector<SiteId> alive = cluster.live_sites();

  // Dead shard owners' global addresses must stay routable: we inherit
  // them. Guarded by liveness — after a cold full-cluster restart the old
  // incarnation's shard-owner ids can coincide with live fresh ids, and a
  // live site must never be marked someone's dead predecessor.
  std::set<SiteId> inherited;
  if (dead != kInvalidSite && !cluster.is_alive(dead)) inherited.insert(dead);
  for (const auto& [owner, shard] : snap.shards) {
    if (!cluster.is_alive(owner)) inherited.insert(owner);
  }
  for (SiteId owner : inherited) {
    cluster.set_successor(owner, site_.id(), /*gossip=*/true);
  }
  SiteId route_dead =
      (dead != kInvalidSite && !cluster.is_alive(dead)) ? dead : kInvalidSite;

  // Exactly-once output: drop frontend log lines the replay from
  // `snap.epoch` will regenerate.
  site_.io().on_rollback(pid, snap.epoch);

  // Every shard whose owner is no longer alive — the site that just died,
  // but also participants that signed off or died since the epoch
  // committed — is adopted by the coordinator. An orphaned shard would
  // silently lose its frames and wedge the program forever.
  std::vector<const std::vector<std::byte>*> orphans;
  for (const auto& [owner, shard] : snap.shards) {
    if (!cluster.is_alive(owner)) orphans.push_back(&shard);
  }

  recovery_started_[pid] = site_.clock().now();
  auto& waiting = recovery_waiting_[pid];
  waiting.clear();
  for (SiteId sid : alive) {
    if (sid != site_.id()) waiting.insert(sid);
  }

  for (SiteId sid : alive) {
    ByteWriter w;
    w.u64(snap.epoch);
    w.site(route_dead);
    info->serialize(w);
    // The target's own shard; all orphaned shards go to us.
    std::vector<std::byte> shard;
    if (auto it = snap.shards.find(sid); it != snap.shards.end()) {
      shard = it->second;
    }
    w.blob(shard);
    if (sid == site_.id()) {
      w.u32(static_cast<std::uint32_t>(orphans.size()));
      for (const auto* orphan : orphans) w.blob(*orphan);
    } else {
      w.u32(0);
    }

    SdMessage msg;
    msg.dst = sid;
    msg.src_mgr = msg.dst_mgr = ManagerId::kCrash;
    msg.type = MsgType::kRecoveryRestore;
    msg.program = pid;
    msg.payload = w.take();
    (void)site_.messages().send(std::move(msg));
  }

  if (snap.epoch == 0) {
    // Epoch-0 restart: re-fire the entry microframe (our own restore ran
    // synchronously above, so local state is already clean).
    FrameId f = site_.memory().create_frame(pid, info->entry_thread,
                                            /*nparams=*/1, /*priority=*/0);
    (void)site_.memory().apply_param(f, 0, to_bytes(std::int64_t{0}));
  }
}

void CrashManager::handle_restore(const SdMessage& msg) {
  try {
    ByteReader r(msg.payload);
    std::uint64_t epoch = r.u64();
    (void)epoch;
    SiteId dead = r.site();
    auto info = ProgramInfo::deserialize(r);
    auto shard = r.blob();
    std::uint32_t norphans = r.u32();
    std::vector<std::vector<std::byte>> orphans;
    orphans.reserve(norphans);
    for (std::uint32_t i = 0; i < norphans; ++i) orphans.push_back(r.blob());

    // Dueling recovery coordinators: a cold-restarted successor and a live
    // replica holder can both elect themselves for the same program (their
    // electorates are disjoint). Deterministic stand-down — the lower-id
    // coordinator wins. While our own recovery is in flight a restore from
    // a higher id is ignored (our restore reaches that coordinator before
    // our completing ack does, per-peer FIFO, and stands it down); one
    // from a lower id ends our attempt before it can wipe the winner's
    // re-fired entry frame.
    if (recovery_started_.count(msg.program) != 0) {
      if (msg.src > site_.id()) return;
      recovery_started_.erase(msg.program);
      recovery_waiting_.erase(msg.program);
    }
    // The same duel, seen after the winner's recovery already completed (a
    // slow loser's restore must not wipe the winner's re-fired frames):
    // judge by current ownership. If the home we believe in — followed
    // down the successor chain — is still alive, only it or a lower-id
    // claimant may restore over it.
    if (const ProgramInfo* cur = site_.programs().find(msg.program);
        cur != nullptr && cur->home_site != msg.src) {
      const SiteId h = site_.cluster().resolve_successor(cur->home_site);
      if (h != msg.src && msg.src > h) {
        const SiteInfo* hi = site_.cluster().find(h);
        if (h == site_.id() || (hi != nullptr && hi->alive)) return;
      }
    }

    if (info.is_ok()) site_.programs().register_info(info.value());
    if (dead != kInvalidSite) {
      site_.cluster().set_successor(dead, msg.src, /*gossip=*/false);
    }
    // A live home is restoring this program — any pending cold-restart
    // election for it is moot, and so is any in-flight checkpoint round:
    // the state that round froze is being replaced wholesale.
    elections_.erase(msg.program);
    active_rounds_.erase(msg.program);
    expire_pending_shards(
        [&](const PendingShard& p) { return p.pid == msg.program; });

    clear_program_state(msg.program);
    // Sites that joined after the epoch committed get an empty shard:
    // clear_program_state already left them with nothing to restore.
    if (!shard.empty()) install_shard(msg.program, shard);
    for (const auto& orphan : orphans) {
      if (!orphan.empty()) install_shard(msg.program, orphan);
    }
    SDVM_DEBUG(site_.tag()) << "restored program " << msg.program.value
                            << ": now " << site_.memory().frame_count()
                            << " stored frames, "
                            << site_.scheduling().queued_total() << " queued";

    SdMessage ack;
    ack.src_mgr = ack.dst_mgr = ManagerId::kCrash;
    ack.type = MsgType::kRecoveryAck;
    ack.program = msg.program;
    (void)site_.messages().respond(msg, std::move(ack));
    site_.driver().request_wakeup(0);
  } catch (const DecodeError& e) {
    SDVM_ERROR(site_.tag()) << "bad recovery message: " << e.what();
  }
}

// ---------------------------------------------------------------------------
// Cold-restart recovery: offer election
// ---------------------------------------------------------------------------

void CrashManager::on_cluster_entered() {
  if (!site_.config().checkpoints_enabled) return;
  auto* cs = checkpoint_store();
  if (cs == nullptr) return;
  for (const auto& [pid, epoch] : cs->recoverable()) {
    if (site_.programs().is_terminated(pid)) {
      cs->drop(pid);
      continue;
    }
    const ProgramInfo* info = site_.programs().find(pid);
    if (info != nullptr && info->home_site == site_.id() &&
        committed_epoch(pid) >= epoch) {
      continue;  // we already run it at least this far
    }
    auto& e = elections_[pid];
    e.my_epoch = std::max(e.my_epoch, epoch);
    SDVM_INFO(site_.tag()) << "state store holds program " << pid.value
                           << " at epoch " << epoch << "; will offer recovery";
  }
  if (elections_.empty() || announce_scheduled_) return;
  announce_scheduled_ = true;
  // A short grace period lets sign-on gossip settle so offers reach the
  // whole membership (and a live home can answer).
  site_.schedule_after(3 * site_.config().heartbeat_interval,
                       [this] { announce_offers(); });
}

void CrashManager::announce_offers() {
  announce_scheduled_ = false;
  if (!site_.cluster().joined() || site_.signed_off()) return;
  Nanos window = 5 * site_.config().heartbeat_interval;
  for (auto& [pid, e] : elections_) {
    if (e.announced) continue;
    e.announced = true;
    e.offers.clear();
    ByteWriter w;
    w.u64(e.my_epoch);
    SdMessage offer;
    offer.src_mgr = offer.dst_mgr = ManagerId::kCrash;
    offer.type = MsgType::kRecoveryOffer;
    offer.program = pid;
    offer.payload = w.take();
    site_.messages().broadcast(offer, site_.cluster().live_sites());
    ProgramId p = pid;
    site_.schedule_after(window, [this, p] { close_election(p); });
  }
}

void CrashManager::handle_offer(const SdMessage& msg) {
  std::uint64_t epoch = 0;
  try {
    ByteReader r(msg.payload);
    epoch = r.u64();
  } catch (const DecodeError&) {
    return;
  }
  ProgramId pid = msg.program;
  bool terminated = site_.programs().is_terminated(pid);
  bool active_home = false;
  if (!terminated) {
    const ProgramInfo* info = site_.programs().find(pid);
    if (info != nullptr &&
        site_.cluster().resolve_successor(info->home_site) == site_.id()) {
      auto active = site_.programs().active_programs();
      active_home =
          std::find(active.begin(), active.end(), pid) != active.end();
    }
  }
  if (terminated || active_home) {
    // The offerer holds stale state: the program finished or is alive and
    // coordinated here. Tell it to stand down (and drop files if done).
    ByteWriter w;
    w.boolean(terminated);
    SdMessage reply;
    reply.dst = msg.src;
    reply.src_mgr = reply.dst_mgr = ManagerId::kCrash;
    reply.type = MsgType::kRecoveryActive;
    reply.program = pid;
    reply.payload = w.take();
    (void)site_.messages().send(std::move(reply));
    return;
  }
  if (auto it = elections_.find(pid); it != elections_.end()) {
    it->second.offers[msg.src] = epoch;
  }
}

void CrashManager::handle_offer_answer(const SdMessage& msg) {
  bool terminated = false;
  try {
    ByteReader r(msg.payload);
    terminated = r.boolean();
  } catch (const DecodeError&) {
  }
  elections_.erase(msg.program);
  if (terminated) {
    if (auto* cs = checkpoint_store()) cs->drop(msg.program);
  }
}

void CrashManager::close_election(ProgramId pid) {
  auto it = elections_.find(pid);
  if (it == elections_.end()) return;  // cancelled (active home / restore)
  // A departed site must not resume programs: its live state already went
  // to its successor, and a post-sign-off recovery would home the program
  // on a non-member.
  if (site_.signed_off()) {
    elections_.erase(it);
    return;
  }
  RecoveryElection& e = it->second;

  if (site_.programs().is_terminated(pid)) {
    if (auto* cs = checkpoint_store()) cs->drop(pid);
    elections_.erase(it);
    return;
  }
  // Healthy in the meantime (someone restored it to us or took over)?
  const ProgramInfo* info = site_.programs().find(pid);
  if (info != nullptr) {
    SiteId home = site_.cluster().resolve_successor(info->home_site);
    if (site_.cluster().is_alive(home) && home != site_.id()) {
      elections_.erase(it);
      return;
    }
    if (home == site_.id() && committed_epoch(pid) >= e.my_epoch) {
      elections_.erase(it);
      return;
    }
  }

  // Highest persisted epoch wins; ties go to the lowest site id. Every
  // candidate saw the same offers, so the winner is unambiguous.
  SiteId winner = site_.id();
  std::uint64_t best = e.my_epoch;
  for (const auto& [sid, ep] : e.offers) {
    if (ep > best || (ep == best && sid < winner)) {
      winner = sid;
      best = ep;
    }
  }
  if (winner != site_.id()) {
    // The better holder recovers. Keep our candidacy warm and re-offer
    // later in case the winner dies before finishing.
    e.announced = false;
    if (!announce_scheduled_) {
      announce_scheduled_ = true;
      site_.schedule_after(10 * site_.config().heartbeat_interval,
                           [this] { announce_offers(); });
    }
    return;
  }

  auto* cs = checkpoint_store();
  elections_.erase(it);
  if (cs == nullptr) return;
  auto snap = cs->load_latest(pid);
  if (!snap.is_ok()) {
    SDVM_WARN(site_.tag()) << "won recovery election for program "
                           << pid.value << " but load failed: "
                           << snap.status().to_string();
    cs->drop(pid);
    return;
  }
  SDVM_WARN(site_.tag()) << "cold recovery: resuming program " << pid.value
                         << " from persisted epoch " << snap.value().epoch;
  take_over(pid, std::move(snap).value());
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void CrashManager::handle(const SdMessage& msg) {
  switch (msg.type) {
    case MsgType::kCheckpointFreeze:
      handle_freeze(msg);
      break;
    case MsgType::kCheckpointFrozen: {
      std::uint64_t epoch = 0;
      try {
        ByteReader r(msg.payload);
        epoch = r.u64();
      } catch (const DecodeError&) {
        break;
      }
      auto it = active_rounds_.find(msg.program);
      if (it == active_rounds_.end() || it->second.epoch != epoch) break;
      Round& round = it->second;
      round.frozen.insert(msg.src);
      if (round.collecting ||
          round.frozen.size() < round.expected.size()) {
        break;
      }
      round.collecting = true;
      // Everyone is quiesced; after the bounded drain the global state is
      // stable and each site may serialize its shard.
      ProgramId pid = msg.program;
      site_.schedule_after(site_.config().checkpoint_drain,
                           [this, pid, epoch] {
        auto rit = active_rounds_.find(pid);
        if (rit == active_rounds_.end() || rit->second.epoch != epoch) return;
        ByteWriter w;
        w.u64(epoch);
        for (SiteId sid : rit->second.expected) {
          SdMessage take;
          take.dst = sid;
          take.src_mgr = take.dst_mgr = ManagerId::kCrash;
          take.type = MsgType::kCheckpointTakeShard;
          take.program = pid;
          take.payload = w.bytes();
          (void)site_.messages().send(std::move(take));
        }
      });
      break;
    }
    case MsgType::kCheckpointTakeShard:
      handle_take_shard(msg);
      break;
    case MsgType::kCheckpointData: {
      try {
        ByteReader r(msg.payload);
        std::uint64_t epoch = r.u64();
        auto shard = r.blob();
        auto it = active_rounds_.find(msg.program);
        if (it != active_rounds_.end() && it->second.epoch == epoch) {
          it->second.received[msg.src] = std::move(shard);
          maybe_commit(msg.program);
        }
      } catch (const DecodeError&) {
      }
      break;
    }
    case MsgType::kCheckpointCommit:
      handle_commit(msg);
      break;
    case MsgType::kCheckpointReplica:
      handle_replica(msg);
      break;
    case MsgType::kCheckpointReplicaAck: {
      std::uint64_t epoch = 0;
      try {
        ByteReader r(msg.payload);
        epoch = r.u64();
      } catch (const DecodeError&) {
        break;
      }
      auto it = active_rounds_.find(msg.program);
      if (it != active_rounds_.end() && it->second.awaiting_quorum &&
          it->second.epoch == epoch) {
        it->second.persist_acks.insert(msg.src);
        maybe_finish_commit(msg.program);
      }
      break;
    }
    case MsgType::kRecoveryRestore:
      handle_restore(msg);
      break;
    case MsgType::kRecoveryAck: {
      auto wit = recovery_waiting_.find(msg.program);
      if (wit == recovery_waiting_.end()) break;
      wit->second.erase(msg.src);
      if (!wit->second.empty()) break;
      recovery_waiting_.erase(wit);
      if (auto sit = recovery_started_.find(msg.program);
          sit != recovery_started_.end()) {
        last_recovery_ms_ =
            (site_.clock().now() - sit->second) / 1'000'000;
        recovery_started_.erase(sit);
      }
      break;
    }
    case MsgType::kRecoveryOffer:
      handle_offer(msg);
      break;
    case MsgType::kRecoveryActive:
      handle_offer_answer(msg);
      break;
    default:
      SDVM_WARN(site_.tag()) << "crash manager: unexpected "
                             << to_string(msg.type);
  }
}

void CrashManager::drop_program(ProgramId pid) {
  active_rounds_.erase(pid);
  committed_.erase(pid);
  last_checkpoint_.erase(pid);
  next_epoch_.erase(pid);
  holders_.erase(pid);
  replicas_.erase(pid);
  replica_home_.erase(pid);
  replica_peers_.erase(pid);
  elections_.erase(pid);
  recovery_started_.erase(pid);
  recovery_waiting_.erase(pid);
  if (auto* cs = checkpoint_store()) cs->drop(pid);
  expire_pending_shards([&](const PendingShard& p) { return p.pid == pid; });
}

}  // namespace sdvm
