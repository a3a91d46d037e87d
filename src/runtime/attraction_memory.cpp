#include "runtime/attraction_memory.hpp"

#include "runtime/site.hpp"

namespace sdvm {

void AttractionMemory::register_metrics(metrics::MetricsRegistry& registry) {
  registry.register_counter("mem.migrations_in", &migrations_in_);
  registry.register_counter("mem.migrations_out", &migrations_out_);
  registry.register_counter("mem.local_hits", &local_hits_);
  registry.register_counter("mem.frames_created", &frames_created_);
  registry.register_counter("mem.params_applied", &params_applied_);
  registry.register_counter("mem.remote_fetches", &remote_fetches_);
  registry.register_counter("mem.directory_lookups", &directory_lookups_);
  registry.register_gauge("mem.frames", [this] {
    return static_cast<std::int64_t>(frames_.size());
  });
  registry.register_gauge("mem.objects", [this] {
    return static_cast<std::int64_t>(objects_.size());
  });
  registry.register_counter("dir.shard_handoffs", &shard_handoffs_);
  registry.register_counter("dir.lease_renewals", &lease_renewals_);
  registry.register_counter("dir.stale_epoch_rejects", &stale_epoch_rejects_);
  registry.register_gauge("dir.shard_rebuild_ms", [this] {
    return static_cast<std::int64_t>(last_rebuild_ns_ / 1'000'000);
  });
  registry.register_gauge("dir.shards_held", [this] {
    return static_cast<std::int64_t>(shards_held());
  });
}

// ---------------------------------------------------------------------------
// Microframes
// ---------------------------------------------------------------------------

FrameId AttractionMemory::create_frame(ProgramId pid, MicrothreadId tid,
                                       std::size_t nparams, int priority) {
  ++frames_created_;
  FrameId id(site_.id(), next_local_id_++);
  Microframe frame(id, pid, tid, nparams, priority);
  site_.trace(FrameEvent::kCreated, id, tid);
  if (nparams == 0) {
    frame.state = FrameState::kExecutable;
    frame_became_executable(std::move(frame));
  } else {
    frames_.emplace(id, std::move(frame));
  }
  return id;
}

Status AttractionMemory::apply_param(GlobalAddress frame, std::size_t slot,
                                     std::vector<std::byte> value) {
  auto it = frames_.find(frame);
  if (it != frames_.end() && site_.messages().defer_active()) {
    // A microthread is executing under virtual time: even local results
    // must not land before its virtual completion. Route through the
    // deferred loopback path.
    ByteWriter w;
    w.address(frame);
    w.u32(static_cast<std::uint32_t>(slot));
    w.blob(value);
    SdMessage msg;
    msg.dst = site_.id();
    msg.src_mgr = msg.dst_mgr = ManagerId::kAttractionMemory;
    msg.type = MsgType::kApplyParam;
    msg.payload = w.take();
    return site_.messages().send(std::move(msg));
  }
  if (it != frames_.end()) {
    Status st = it->second.apply(slot, std::move(value));
    if (!st.is_ok()) {
      SDVM_WARN(site_.tag()) << "apply to frame " << frame.value
                             << " failed: " << st.to_string();
      return st;
    }
    ++params_applied_;
    site_.trace(FrameEvent::kParamApplied, frame, it->second.thread);
    // "Every time a result ... is applied to a waiting microframe, the
    // attraction memory checks whether this was the last missing
    // parameter."
    if (it->second.executable()) {
      Microframe f = std::move(it->second);
      frames_.erase(it);
      f.state = FrameState::kExecutable;
      frame_became_executable(std::move(f));
    }
    return Status::ok();
  }

  SiteId home = site_.cluster().resolve_successor(frame.home_site());
  if (home == site_.id()) {
    // Homed here but unknown. Either the frame is still in flight to us (a
    // signing-off site's kDirectoryImport races the frame's own results),
    // or it was consumed and this is a post-recovery duplicate. Park the
    // value: adoption applies it, the TTL purge forgets true duplicates.
    park_param(frame, slot, std::move(value));
    return Status::ok();
  }

  ByteWriter w;
  w.address(frame);
  w.u32(static_cast<std::uint32_t>(slot));
  w.blob(value);
  SdMessage msg;
  msg.dst = home;
  msg.src_mgr = msg.dst_mgr = ManagerId::kAttractionMemory;
  msg.type = MsgType::kApplyParam;
  msg.payload = w.take();
  return site_.messages().send(std::move(msg));
}

void AttractionMemory::frame_became_executable(Microframe frame) {
  site_.trace(FrameEvent::kBecameExecutable, frame.id, frame.thread);
  site_.scheduling().on_executable(std::move(frame));
}

Result<Microframe> AttractionMemory::take_frame(FrameId id) {
  auto it = frames_.find(id);
  if (it == frames_.end()) {
    return Status::error(ErrorCode::kNotFound,
                         "frame " + std::to_string(id.value) + " not here");
  }
  Microframe f = std::move(it->second);
  frames_.erase(it);
  return f;
}

void AttractionMemory::park_param(GlobalAddress frame, std::size_t slot,
                                  std::vector<std::byte> value) {
  purge_stale_params();
  SDVM_DEBUG(site_.tag()) << "parking param for absent local frame "
                          << frame.value;
  pending_params_[frame].push_back(PendingParam{
      static_cast<std::uint32_t>(slot), std::move(value),
      site_.clock().now()});
}

void AttractionMemory::purge_stale_params() {
  const Nanos ttl = 8 * site_.config().failure_timeout;
  const Nanos now = site_.clock().now();
  for (auto& [fid, parked] : pending_params_) {
    std::erase_if(parked, [&](const PendingParam& p) {
      return now - p.parked_at > ttl;
    });
  }
  std::erase_if(pending_params_,
                [](const auto& kv) { return kv.second.empty(); });
}

void AttractionMemory::adopt_frame(Microframe frame) {
  site_.trace(FrameEvent::kAdopted, frame.id, frame.thread);
  if (auto parked = pending_params_.extract(frame.id); !parked.empty()) {
    for (PendingParam& p : parked.mapped()) {
      Status st = frame.apply(p.slot, std::move(p.value));
      if (!st.is_ok()) {
        SDVM_WARN(site_.tag()) << "parked param for frame "
                               << frame.id.value
                               << " rejected: " << st.to_string();
      } else {
        ++params_applied_;
        site_.trace(FrameEvent::kParamApplied, frame.id, frame.thread);
      }
    }
  }
  if (frame.executable()) {
    frame.state = FrameState::kExecutable;
    frame_became_executable(std::move(frame));
  } else {
    frames_.emplace(frame.id, std::move(frame));
  }
}

// ---------------------------------------------------------------------------
// Global memory objects
// ---------------------------------------------------------------------------

GlobalAddress AttractionMemory::alloc_object(ProgramId pid,
                                             std::int64_t nwords) {
  GlobalAddress addr(site_.id(), next_local_id_++);
  MemObject obj;
  obj.addr = addr;
  obj.program = pid;
  obj.words.assign(static_cast<std::size_t>(std::max<std::int64_t>(nwords, 0)),
                   0);
  objects_.emplace(addr, std::move(obj));

  const std::uint32_t s = shard_of(addr);
  if (shard_authoritative(s)) {
    // is_local fast path: we hold the shard lease, register in place.
    auto& entry = directory_[addr];
    entry.owner = site_.id();
    entry.program = pid;
    return addr;
  }
  register_with_holder(addr, pid, site_.id());
  return addr;
}

void AttractionMemory::register_with_holder(GlobalAddress addr,
                                            ProgramId pid, SiteId owner) {
  const SiteId route = route_of(shard_of(addr));
  if (route != site_.id() && route != kInvalidSite) {
    send_register(addr, pid, owner, route, 0);
  } else {
    // Authority is (about to be) ours or unknown: defer to the tick.
    pending_registers_.push_back(ShardDirEntry{addr, owner, pid});
  }
}

void AttractionMemory::adopt_object(MemObject obj) {
  const GlobalAddress addr = obj.addr;
  const ProgramId pid = obj.program;
  install_object(std::move(obj));
  if (shard_authoritative(shard_of(addr))) {
    directory_[addr].owner = site_.id();
    grant_next(addr);
  } else {
    register_with_holder(addr, pid, site_.id());
  }
}

MemObject* AttractionMemory::local_object(GlobalAddress addr) {
  auto it = objects_.find(addr);
  return it == objects_.end() ? nullptr : &it->second;
}

bool AttractionMemory::owns(GlobalAddress addr) const {
  return objects_.contains(addr);
}

void AttractionMemory::install_object(MemObject obj) {
  GlobalAddress addr = obj.addr;
  ProgramId pid = obj.program;
  objects_[addr] = std::move(obj);
  if (shard_authoritative(shard_of(addr))) {
    auto& entry = directory_[addr];
    entry.owner = site_.id();
    entry.program = pid;
  }
}

MemObject AttractionMemory::give_away(GlobalAddress addr) {
  ++migrations_out_;
  return std::move(objects_.extract(addr).mapped());
}

SiteId AttractionMemory::directory_owner(GlobalAddress addr) const {
  ++directory_lookups_;
  auto it = directory_.find(addr);
  return it == directory_.end() ? kInvalidSite : it->second.owner;
}

Result<std::int64_t*> AttractionMemory::word(GlobalAddress addr,
                                             std::int64_t index) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    if (MemObject* obj = local_object(addr); obj != nullptr) {
      ++local_hits_;
      if (index < 0 || static_cast<std::size_t>(index) >= obj->words.size()) {
        return Status::error(ErrorCode::kInvalidArgument,
                             "memory index out of range");
      }
      return &obj->words[static_cast<std::size_t>(index)];
    }
    // Park on (or start) a fetch; retry once it lands.
    auto it = fetching_.find(addr);
    if (it == fetching_.end()) {
      ++remote_fetches_;
      it = fetching_.emplace(addr, std::make_shared<FetchState>()).first;
      begin_fetch(addr);
    }
    std::shared_ptr<FetchState> cell = it->second;
    if (Status st = site_.processing().park(*cell); !st.is_ok()) return st;
    // A fetched object stays here until every microthread its arrival
    // woke has run again, so contending sites cannot starve each other's
    // microthreads by recalling it first. Let it go once the last one's
    // segment is over, not in the middle of it.
    if (auto h = held_.find(addr); h != held_.end() && --h->second.fibers == 0) {
      site_.schedule_after(0, [this, addr] { release_hold(addr); });
    }
  }
  return Status::error(ErrorCode::kUnavailable,
                       "memory object ping-ponging, giving up");
}

void AttractionMemory::begin_fetch(GlobalAddress addr) {
  const std::uint32_t s = shard_of(addr);

  if (shard_authoritative(s)) {
    // is_local fast path: we mediate this shard ourselves.
    auto dit = directory_.find(addr);
    if (dit == directory_.end()) {
      // The registration may still be in flight (alloc races the first
      // fetch) or a rebuild is filling the shard in: park, the TTL purge
      // answers not-found if it never materializes.
      park_local_fetch(addr);
      return;
    }
    Waiter w;
    w.requester = site_.id();
    w.local = fetching_[addr];
    dit->second.waiters.push_back(std::move(w));
    grant_next(addr);
    return;
  }

  SiteId route = route_of(s);
  if (route == site_.id() || route == kInvalidSite) {
    // Authority is moving to us (handoff/rebuild pending) or the view is
    // empty: park until the lease settles.
    park_local_fetch(addr);
    return;
  }

  ShardRoutedRequest header{addr, s, leases_[s].epoch};
  ByteWriter w;
  header.serialize(w);
  SdMessage req;
  req.dst = route;
  req.src_mgr = req.dst_mgr = ManagerId::kAttractionMemory;
  req.type = MsgType::kObjectRequest;
  req.payload = w.take();
  (void)site_.messages().request(req, [this, addr](Result<SdMessage> r) {
    if (!fetching_.contains(addr)) return;
    if (r.is_ok() && r.value().type == MsgType::kShardStale) {
      // Routed to a non-authoritative site: merge its lease knowledge and
      // re-route (bounded). Stale authority is never silently served.
      try {
        ByteReader rd(r.value().payload);
        auto st = ShardStale::deserialize(rd);
        if (st.is_ok()) {
          merge_lease(st.value().shard, st.value().holder, st.value().epoch);
        }
      } catch (const DecodeError&) {
      }
      retry_fetch(addr, "shard route stale");
      return;
    }
    if (!r.is_ok()) {
      // Holder died mid-request; the takeover protocol elects a successor.
      retry_fetch(addr, r.status().message());
      return;
    }
    if (r.value().type != MsgType::kObjectGrant) {
      auto node = fetching_.extract(addr);
      fetch_retries_.erase(addr);
      if (!node.empty()) {
        node.mapped()->signal(
            Status::error(ErrorCode::kNotFound, "object miss"));
      }
      return;
    }
    ByteReader rd(r.value().payload);
    auto obj = MemObject::deserialize(rd);
    auto node = fetching_.extract(addr);
    fetch_retries_.erase(addr);
    if (node.empty()) return;
    if (!obj.is_ok()) {
      node.mapped()->signal(obj.status());
      return;
    }
    ++migrations_in_;
    install_object(std::move(obj).value());
    complete_fetch(*node.mapped(), addr);
  });
}

void AttractionMemory::complete_fetch(FetchState& cell, GlobalAddress addr) {
  const std::size_t woken = cell.signal(Status::ok());
  if (woken > 0) held_[addr].fibers += woken;
}

void AttractionMemory::release_hold(GlobalAddress addr) {
  auto node = held_.extract(addr);
  if (node.empty()) return;
  for (const SdMessage& m : node.mapped().recalls) answer_recall(m, addr);
  grant_next(addr);
}

void AttractionMemory::retry_fetch(GlobalAddress addr,
                                   const std::string& why) {
  constexpr int kMaxFetchRetries = 32;
  int& n = fetch_retries_[addr];
  if (++n > kMaxFetchRetries) {
    fetch_retries_.erase(addr);
    auto node = fetching_.extract(addr);
    if (!node.empty()) {
      node.mapped()->signal(Status::error(
          ErrorCode::kUnavailable, "object fetch failed: " + why));
    }
    return;
  }
  // Back off one help-retry interval: lease announcements and takeovers
  // need a moment to converge after churn; spinning would exhaust the
  // retry budget before they do.
  site_.schedule_after(site_.config().help_retry_interval, [this, addr] {
    if (fetching_.contains(addr)) begin_fetch(addr);
  });
}

void AttractionMemory::grant_next(GlobalAddress addr) {
  auto dit = directory_.find(addr);
  if (dit == directory_.end()) return;
  DirEntry& d = dit->second;
  if (d.waiters.empty() || held_.contains(addr)) return;

  if (d.owner == site_.id() && owns(addr)) {
    Waiter w = std::move(d.waiters.front());
    d.waiters.pop_front();

    if (w.requester == site_.id()) {
      // Our own fetch: object is already local.
      fetching_.erase(addr);
      if (w.local) complete_fetch(*w.local, addr);
    } else {
      ByteWriter bw;
      give_away(addr).serialize(bw);
      d.owner = w.requester;
      SdMessage grant;
      grant.dst = w.requester;
      grant.src_mgr = grant.dst_mgr = ManagerId::kAttractionMemory;
      grant.type = MsgType::kObjectGrant;
      grant.reply_to = w.reply_seq;
      grant.payload = bw.take();
      (void)site_.messages().send(std::move(grant));
    }
    if (!d.waiters.empty()) grant_next(addr);
    return;
  }

  if (d.recall_in_flight) return;
  d.recall_in_flight = true;

  ByteWriter bw;
  bw.address(addr);
  SdMessage recall;
  recall.dst = site_.cluster().resolve_successor(d.owner);
  recall.src_mgr = recall.dst_mgr = ManagerId::kAttractionMemory;
  recall.type = MsgType::kObjectRecall;
  recall.payload = bw.take();
  (void)site_.messages().request(recall, [this, addr](Result<SdMessage> r) {
    auto dit2 = directory_.find(addr);
    if (dit2 == directory_.end()) {
      // The shard was handed off mid-recall. Don't drop a returned object:
      // keep it here and re-register with the current shard holder.
      if (r.is_ok() && r.value().type == MsgType::kObjectReturn) {
        ByteReader rd(r.value().payload);
        auto obj = MemObject::deserialize(rd);
        if (obj.is_ok()) adopt_object(std::move(obj).value());
      }
      return;
    }
    DirEntry& d2 = dit2->second;
    d2.recall_in_flight = false;

    constexpr int kMaxRecallMisses = 8;
    if (r.is_ok() && r.value().type == MsgType::kObjectMiss &&
        ++d2.recall_misses <= kMaxRecallMisses) {
      // A live owner that misses may not hold the object *yet*: the links
      // do not keep order, so this recall can overtake our grant to it.
      // Ask again; the grant lands first within a round trip.
      grant_next(addr);
      return;
    }
    d2.recall_misses = 0;
    if (!r.is_ok() || r.value().type != MsgType::kObjectReturn) {
      // Owner dead or object lost; recovery (if enabled) will restore it.
      Status failure = r.is_ok()
                           ? Status::error(ErrorCode::kNotFound, "object lost")
                           : r.status();
      auto waiters = std::move(d2.waiters);
      d2.waiters.clear();
      for (auto& w : waiters) {
        if (w.requester == site_.id()) {
          fetching_.erase(addr);
          if (w.local) w.local->signal(failure);
        } else {
          SdMessage miss;
          miss.dst = w.requester;
          miss.src_mgr = miss.dst_mgr = ManagerId::kAttractionMemory;
          miss.type = MsgType::kObjectMiss;
          miss.reply_to = w.reply_seq;
          (void)site_.messages().send(std::move(miss));
        }
      }
      return;
    }

    ByteReader rd(r.value().payload);
    auto obj = MemObject::deserialize(rd);
    if (!obj.is_ok()) return;
    install_object(std::move(obj).value());
    d2.owner = site_.id();
    grant_next(addr);
  });
}

void AttractionMemory::answer_recall(const SdMessage& msg,
                                     GlobalAddress addr) {
  SdMessage reply;
  reply.src_mgr = reply.dst_mgr = ManagerId::kAttractionMemory;
  if (owns(addr)) {
    ByteWriter bw;
    give_away(addr).serialize(bw);
    reply.type = MsgType::kObjectReturn;
    reply.payload = bw.take();
  } else {
    reply.type = MsgType::kObjectMiss;
  }
  (void)site_.messages().respond(msg, std::move(reply));
}

void AttractionMemory::handle(const SdMessage& msg) {
  switch (msg.type) {
    case MsgType::kApplyParam: {
      try {
        ByteReader r(msg.payload);
        GlobalAddress frame = r.address();
        std::uint32_t slot = r.u32();
        auto value = r.blob();
        (void)apply_param(frame, slot, std::move(value));
      } catch (const DecodeError&) {
      }
      break;
    }
    case MsgType::kObjectRequest:
      process_object_request(msg, site_.clock().now());
      break;
    case MsgType::kObjectRecall: {
      try {
        ByteReader r(msg.payload);
        GlobalAddress addr = r.address();
        if (auto it = held_.find(addr); it != held_.end()) {
          it->second.recalls.push_back(msg);  // answered when released
        } else {
          answer_recall(msg, addr);
        }
      } catch (const DecodeError&) {
      }
      break;
    }
    case MsgType::kObjectGrant:
    case MsgType::kObjectReturn: {
      // Unsolicited grant/return: addressed to a site that signed off (or
      // lost the shard) before it arrived, relayed here. Keep the object;
      // if we mediate its shard, update the directory, otherwise tell the
      // current shard holder that we physically hold it now.
      try {
        ByteReader r(msg.payload);
        auto obj = MemObject::deserialize(r);
        if (obj.is_ok()) adopt_object(std::move(obj).value());
      } catch (const DecodeError&) {
      }
      break;
    }
    case MsgType::kShardLease: {
      try {
        ByteReader r(msg.payload);
        auto a = ShardLeaseAnnounce::deserialize(r);
        if (a.is_ok()) {
          for (const auto& e : a.value().entries) {
            merge_lease(e.shard, e.holder, e.epoch);
          }
        }
      } catch (const DecodeError&) {
      }
      break;
    }
    case MsgType::kShardHandoff: {
      try {
        ByteReader r(msg.payload);
        auto h = ShardHandoff::deserialize(r);
        if (!h.is_ok()) break;
        const std::uint32_t s = h.value().shard;
        if (h.value().epoch < leases_[s].epoch) break;  // superseded
        leases_[s] = ShardLease{site_.id(), h.value().epoch};
        max_epoch_seen_[s] =
            std::max(max_epoch_seen_[s], h.value().epoch);
        for (const ShardDirEntry& e : h.value().entries) {
          auto& entry = directory_[e.addr];
          if (entry.owner == kInvalidSite) {
            entry.owner = e.owner;
            entry.program = e.program;
          }
        }
        announce_leases({{s, site_.id(), h.value().epoch}});
        SDVM_DEBUG(site_.tag())
            << "shard " << s << " handed off to us at epoch "
            << h.value().epoch << " (" << h.value().entries.size()
            << " entries)";
        drain_parked(s);
      } catch (const DecodeError&) {
      }
      break;
    }
    case MsgType::kShardRecover: {
      try {
        ByteReader r(msg.payload);
        auto rec = ShardRecover::deserialize(r);
        if (!rec.is_ok()) break;
        const std::uint32_t s = rec.value().shard;
        merge_lease(s, msg.src, rec.value().epoch);
        ShardRecoverReply reply{s, rec.value().epoch, {}};
        for (const auto& [addr, obj] : objects_) {
          if (shard_of(addr) == s) {
            reply.entries.push_back(
                ShardDirEntry{addr, site_.id(), obj.program});
          }
        }
        // Stale directory entries we still held for the shard travel to
        // the rebuilding holder and are dropped here.
        if (!shard_authoritative(s)) {
          for (auto it = directory_.begin(); it != directory_.end();) {
            if (shard_of(it->first) == s) {
              if (!owns(it->first)) {
                reply.entries.push_back(ShardDirEntry{
                    it->first, it->second.owner, it->second.program});
              }
              it = directory_.erase(it);
            } else {
              ++it;
            }
          }
        }
        ByteWriter w;
        reply.serialize(w);
        SdMessage out;
        out.src_mgr = out.dst_mgr = ManagerId::kAttractionMemory;
        out.type = MsgType::kShardRecoverReply;
        out.payload = w.take();
        (void)site_.messages().respond(msg, std::move(out));
      } catch (const DecodeError&) {
      }
      break;
    }
    case MsgType::kShardRecoverReply: {
      // Unsolicited (relayed after a sign-off): merge like a register batch
      // if we are authoritative for the shard.
      try {
        ByteReader r(msg.payload);
        auto rep = ShardRecoverReply::deserialize(r);
        if (!rep.is_ok()) break;
        const std::uint32_t s = rep.value().shard;
        if (!shard_authoritative(s)) break;
        for (const ShardDirEntry& e : rep.value().entries) {
          auto& entry = directory_[e.addr];
          if (entry.owner == kInvalidSite ||
              (e.owner == msg.src && entry.owner != e.owner)) {
            entry.owner = e.owner;
            entry.program = e.program;
          }
        }
        drain_parked(s);
      } catch (const DecodeError&) {
      }
      break;
    }
    case MsgType::kShardRegister:
      process_register(msg, site_.clock().now());
      break;
    case MsgType::kShardStale: {
      // Unsolicited stale notice (e.g. a redirect for a waiter whose
      // request already completed): absorb the lease knowledge.
      try {
        ByteReader r(msg.payload);
        auto st = ShardStale::deserialize(r);
        if (st.is_ok()) {
          merge_lease(st.value().shard, st.value().holder,
                      st.value().epoch);
        }
      } catch (const DecodeError&) {
      }
      break;
    }
    case MsgType::kDirectoryImport: {
      try {
        ByteReader r(msg.payload);
        // Program descriptions first, so adopted frames resolve.
        std::uint32_t nprogs = r.count(/*min_bytes_each=*/8);
        for (std::uint32_t i = 0; i < nprogs; ++i) {
          auto info = ProgramInfo::deserialize(r);
          if (info.is_ok() &&
              site_.programs().find(info.value().id) == nullptr) {
            site_.programs().register_info(info.value());
          }
        }
        // Queued executable frames go straight to our scheduler.
        std::uint32_t nqueued = r.count(/*min_bytes_each=*/8);
        for (std::uint32_t i = 0; i < nqueued; ++i) {
          auto f = Microframe::deserialize(r);
          if (f.is_ok()) adopt_frame(std::move(f).value());
        }
        restore_snapshot(r);
        std::uint32_t nsources = r.count(/*min_bytes_each=*/8);
        for (std::uint32_t i = 0; i < nsources; ++i) {
          ProgramId spid = r.program();
          MicrothreadId tid = r.u32();
          std::string src = r.str();
          site_.code().import_sources(spid, {{tid, std::move(src)}});
        }
        SDVM_INFO(site_.tag()) << "absorbed state from signing-off site "
                               << msg.src;
      } catch (const DecodeError&) {
      }
      break;
    }
    default:
      SDVM_WARN(site_.tag()) << "attraction memory: unexpected "
                             << to_string(msg.type);
  }
}

// ---------------------------------------------------------------------------
// Bulk state movement: checkpoints and graceful sign-off
// ---------------------------------------------------------------------------

std::vector<std::byte> AttractionMemory::snapshot(ProgramId pid) const {
  bool all = !pid.valid();
  ByteWriter w;

  std::uint32_t nframes = 0;
  for (const auto& [id, f] : frames_) {
    if (all || f.program == pid) ++nframes;
  }
  w.u32(nframes);
  for (const auto& [id, f] : frames_) {
    if (all || f.program == pid) f.serialize(w);
  }

  std::uint32_t nobjs = 0;
  for (const auto& [addr, o] : objects_) {
    if (all || o.program == pid) ++nobjs;
  }
  w.u32(nobjs);
  for (const auto& [addr, o] : objects_) {
    if (all || o.program == pid) o.serialize(w);
  }

  // Directory entries homed here (owner field only; waiter queues are
  // transient and empty at quiescence).
  std::uint32_t ndir = 0;
  for (const auto& [addr, d] : directory_) {
    if (all || d.program == pid) ++ndir;
  }
  w.u32(ndir);
  for (const auto& [addr, d] : directory_) {
    if (all || d.program == pid) {
      w.address(addr);
      w.site(d.owner);
      w.program(d.program);
    }
  }
  return w.take();
}

void AttractionMemory::restore_snapshot(ByteReader& r) {
  std::uint32_t nframes = r.count(/*min_bytes_each=*/8);
  for (std::uint32_t i = 0; i < nframes; ++i) {
    auto f = Microframe::deserialize(r);
    if (!f.is_ok()) throw DecodeError("bad frame in snapshot");
    adopt_frame(std::move(f).value());
  }
  std::uint32_t nobjs = r.count(/*min_bytes_each=*/8);
  for (std::uint32_t i = 0; i < nobjs; ++i) {
    auto o = MemObject::deserialize(r);
    if (!o.is_ok()) throw DecodeError("bad object in snapshot");
    objects_[o.value().addr] = std::move(o).value();
  }
  std::uint32_t ndir = r.count(/*min_bytes_each=*/8);
  for (std::uint32_t i = 0; i < ndir; ++i) {
    GlobalAddress addr = r.address();
    SiteId owner = r.site();
    ProgramId pid = r.program();
    const std::uint32_t s = shard_of(addr);
    if (shard_authoritative(s)) {
      auto& entry = directory_[addr];
      if (entry.owner == kInvalidSite) {
        entry.owner = owner;
        entry.program = pid;
      }
      continue;
    }
    // Restored from a checkpoint (or an import blob) on a site that does
    // not mediate this shard: route the entry to the current holder. This
    // is how a handed-off shard survives a cold restart — recovery lands
    // the entries wherever the lease now lives.
    register_with_holder(addr, pid, owner);
  }
}

void AttractionMemory::relocate_all_to(SiteId successor) {
  // Shard authority leaves first, as a first-class handoff per shard:
  // entries transfer to each shard's rendezvous target with a bumped
  // epoch, so the import blob below carries no directory state and no
  // other site ever sees two authoritative answers. The successor gets
  // the shards whose target it is; others go where they belong.
  {
    std::vector<SiteId> live = site_.cluster().live_sites();
    std::erase(live, site_.id());
    std::vector<ShardLeaseAnnounce::Entry> announce;
    for (std::uint32_t s = 0; s < kNumShards; ++s) {
      if (leases_[s].holder != site_.id()) continue;
      SiteId tgt = shard_target(s, live);
      if (tgt == kInvalidSite) tgt = successor;
      graceful_handoff(s, tgt, &announce);
    }
    if (!announce.empty()) announce_leases(announce);
  }
  // Entries restored here while the route was unresolved flush to their
  // holders now (best effort; the register messages are forwardable).
  flush_pending_registers();
  for (const ShardDirEntry& e : pending_registers_) {
    send_register(e.addr, e.program, e.owner, successor, 0);
  }
  pending_registers_.clear();

  // Objects we physically hold ride the import blob to the successor.
  // Shard holders' entries keep naming this (departed) site as owner;
  // recalls reach the successor through the sign-off successor chain.

  // Everything homed/owned here — frames, objects, directory — plus the
  // scheduler's queued frames and the program descriptions the successor
  // may lack, shipped as one import blob.
  ByteWriter w;

  auto queued = site_.scheduling().snapshot_frames(ProgramId{});
  // Queued executable frames ride along as ordinary executable frames.
  // They are appended to the frame section by temporarily adopting them.
  // (Serialize directly instead.)
  // -- program infos --
  std::vector<ProgramId> pids = site_.programs().active_programs();
  w.u32(static_cast<std::uint32_t>(pids.size()));
  for (ProgramId pid : pids) {
    site_.programs().find(pid)->serialize(w);
  }
  // -- queued frames --
  w.u32(static_cast<std::uint32_t>(queued.size()));
  for (const auto& f : queued) f.serialize(w);
  // -- memory snapshot --
  auto snap = snapshot(ProgramId{});
  w.raw(snap.data(), snap.size());
  // -- code sources --
  // The home is implicitly a code distribution site; if that role has
  // migrated here through a successor chain, hand it on too. Otherwise a
  // cluster whose original members all departed gracefully ends up with
  // live frames and no site able to serve their code.
  std::vector<std::tuple<ProgramId, MicrothreadId, std::string>> sources;
  for (ProgramId pid : pids) {
    for (auto& [tid, src] : site_.code().export_sources(pid)) {
      sources.emplace_back(pid, tid, std::move(src));
    }
  }
  w.u32(static_cast<std::uint32_t>(sources.size()));
  for (const auto& [pid, tid, src] : sources) {
    w.program(pid);
    w.u32(tid);
    w.str(src);
  }

  SdMessage imp;
  imp.dst = successor;
  imp.src_mgr = imp.dst_mgr = ManagerId::kAttractionMemory;
  imp.type = MsgType::kDirectoryImport;
  imp.payload = w.take();
  (void)site_.messages().send(std::move(imp));

  site_.scheduling().clear_program_frames(ProgramId{});
  frames_.clear();
  objects_.clear();
  directory_.clear();

  // Parked results ride along too: their frames are in the import blob
  // above, so re-address each one to the successor (re-parked there if it
  // outruns the import).
  for (auto& [fid, parked] : pending_params_) {
    for (PendingParam& p : parked) {
      ByteWriter pw;
      pw.address(fid);
      pw.u32(p.slot);
      pw.blob(p.value);
      SdMessage pm;
      pm.dst = successor;
      pm.src_mgr = pm.dst_mgr = ManagerId::kAttractionMemory;
      pm.type = MsgType::kApplyParam;
      pm.payload = pw.take();
      (void)site_.messages().send(std::move(pm));
    }
  }
  pending_params_.clear();
}

void AttractionMemory::drop_program(ProgramId pid) {
  std::erase_if(frames_,
                [&](const auto& kv) { return kv.second.program == pid; });
  std::vector<GlobalAddress> dead_objects;
  for (const auto& [addr, obj] : objects_) {
    if (obj.program == pid) dead_objects.push_back(addr);
  }
  for (auto addr : dead_objects) {
    objects_.erase(addr);
  }
  std::erase_if(directory_,
                [&](const auto& kv) { return kv.second.program == pid; });
  for (auto addr : dead_objects) release_hold(addr);
  std::erase_if(pending_registers_,
                [&](const ShardDirEntry& e) { return e.program == pid; });
}

// ---------------------------------------------------------------------------
// Sharded directory: leases, routing, handoff, crash rebuild
// ---------------------------------------------------------------------------

std::size_t AttractionMemory::shards_held() const {
  std::size_t n = 0;
  for (const ShardLease& l : leases_) {
    if (l.holder == site_.id()) ++n;
  }
  return n;
}

bool AttractionMemory::shard_authoritative(std::uint32_t shard) const {
  if (shard >= kNumShards) return false;
  if (leases_[shard].holder != site_.id()) return false;
  // Split-brain guard: renewal is the maintenance tick itself. A holder
  // whose tick has stalled past the lease TTL cannot have renewed — by
  // then the failure detector has declared it dead and a successor holds
  // the shard at a higher epoch — so it must stop answering.
  if (site_.cluster().cluster_size() > 1 && last_shard_tick_ > 0 &&
      site_.clock().now() - last_shard_tick_ >
          4 * site_.config().failure_timeout) {
    return false;
  }
  return true;
}

SiteId AttractionMemory::route_of(std::uint32_t shard) {
  const ShardLease& l = leases_[shard];
  if (l.holder != kInvalidSite &&
      (l.holder == site_.id() || site_.cluster().is_alive(l.holder))) {
    return l.holder;
  }
  return shard_targets_.target(shard);
}

SiteId AttractionMemory::shard_route(GlobalAddress addr) {
  return route_of(shard_of(addr));
}

std::uint64_t AttractionMemory::next_epoch(std::uint32_t shard) const {
  const std::uint64_t seen =
      std::max(max_epoch_seen_[shard], leases_[shard].epoch);
  // Saturate instead of wrapping: a wrapped epoch would un-order every
  // lease comparison (fuzzed payloads do carry UINT64_MAX).
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  return seen == kMax ? seen : seen + 1;
}

bool AttractionMemory::merge_lease(std::uint32_t s, SiteId holder,
                                   std::uint64_t epoch) {
  if (s >= kNumShards) return false;
  max_epoch_seen_[s] = std::max(max_epoch_seen_[s], epoch);
  if (holder == kInvalidSite) return false;
  ShardLease& cur = leases_[s];
  if (cur.holder == holder && cur.epoch >= epoch) return false;
  bool supersedes = epoch > cur.epoch || cur.holder == kInvalidSite ||
                    (epoch == cur.epoch && holder < cur.holder);
  // A live claimant beats a dead incumbent at any epoch: two independent
  // takeovers can collide (the first claimant dies before its announce
  // spreads, so its successor elects with an equal or even lower epoch).
  // Ids are never reused and death is terminal, so the dead incumbent can
  // never serve again — preferring the survivor converges on reality, and
  // max_epoch_seen_ keeps future elections past every epoch ever observed.
  const ClusterManager& cluster = site_.cluster();
  if (!supersedes && !cluster.is_alive(cur.holder) &&
      cluster.is_alive(holder)) {
    supersedes = true;
  }
  if (!supersedes) return false;
  const bool lost = cur.holder == site_.id() && holder != site_.id();
  if (lost && site_.config().test_stale_lease_serve) {
    // Seeded bug (exploration canary): ignore the superseding claim and
    // keep serving the shard from the stale lease.
    return false;
  }
  cur = ShardLease{holder, epoch};
  if (lost) abdicate_to(s, holder, epoch);
  drain_parked(s);
  return true;
}

void AttractionMemory::announce_leases(
    const std::vector<ShardLeaseAnnounce::Entry>& entries) {
  if (entries.empty()) return;
  ShardLeaseAnnounce a{entries};
  ByteWriter w;
  a.serialize(w);
  SdMessage m;
  m.src_mgr = m.dst_mgr = ManagerId::kAttractionMemory;
  m.type = MsgType::kShardLease;
  m.payload = w.take();
  site_.messages().broadcast(m, site_.cluster().live_sites());
}

std::vector<ShardDirEntry> AttractionMemory::strip_shard(
    std::uint32_t s, SiteId new_holder, std::uint64_t epoch) {
  std::vector<ShardDirEntry> out;
  std::vector<GlobalAddress> refetch;
  for (auto it = directory_.begin(); it != directory_.end();) {
    if (shard_of(it->first) != s) {
      ++it;
      continue;
    }
    out.push_back(
        ShardDirEntry{it->first, it->second.owner, it->second.program});
    for (const Waiter& w : it->second.waiters) {
      if (w.requester == site_.id()) {
        refetch.push_back(it->first);
        continue;
      }
      // Waiters move with the shard: redirect the requester at the new
      // holder instead of leaving its request dangling here.
      ShardStale st{s, new_holder, epoch};
      ByteWriter bw;
      st.serialize(bw);
      SdMessage m;
      m.dst = w.requester;
      m.src_mgr = m.dst_mgr = ManagerId::kAttractionMemory;
      m.type = MsgType::kShardStale;
      m.reply_to = w.reply_seq;
      m.payload = bw.take();
      (void)site_.messages().send(std::move(m));
    }
    it = directory_.erase(it);
  }
  for (GlobalAddress a : refetch) {
    if (fetching_.contains(a)) begin_fetch(a);
  }
  return out;
}

void AttractionMemory::graceful_handoff(
    std::uint32_t s, SiteId target,
    std::vector<ShardLeaseAnnounce::Entry>* announce) {
  const std::uint64_t epoch = next_epoch(s);
  ++shard_handoffs_;
  ShardHandoff h;
  h.shard = s;
  h.epoch = epoch;
  if (site_.config().test_stale_lease_serve) {
    // Seeded bug: ship the entries but keep the lease claim and the local
    // entries — split authority the invariants must catch.
    for (const auto& [addr, d] : directory_) {
      if (shard_of(addr) == s) {
        h.entries.push_back(ShardDirEntry{addr, d.owner, d.program});
      }
    }
  } else {
    max_epoch_seen_[s] = epoch;
    leases_[s] = ShardLease{target, epoch};
    h.entries = strip_shard(s, target, epoch);
  }
  ByteWriter w;
  h.serialize(w);
  SdMessage m;
  m.dst = target;
  m.src_mgr = m.dst_mgr = ManagerId::kAttractionMemory;
  m.type = MsgType::kShardHandoff;
  m.payload = w.take();
  (void)site_.messages().send(std::move(m));
  if (announce) announce->push_back({s, target, epoch});
  SDVM_DEBUG(site_.tag()) << "handed shard " << s << " to site " << target
                          << " at epoch " << epoch;
}

void AttractionMemory::abdicate_to(std::uint32_t s, SiteId winner,
                                   std::uint64_t epoch) {
  // We lost the lease to a higher-epoch claim: our entries belong to the
  // winner. Ship them as a handoff at the winner's epoch (the receive path
  // merges, existing entries win) and answer nothing more for the shard.
  std::vector<ShardDirEntry> entries = strip_shard(s, winner, epoch);
  if (!entries.empty()) {
    ++shard_handoffs_;
    ShardHandoff h{s, epoch, std::move(entries)};
    ByteWriter w;
    h.serialize(w);
    SdMessage m;
    m.dst = winner;
    m.src_mgr = m.dst_mgr = ManagerId::kAttractionMemory;
    m.type = MsgType::kShardHandoff;
    m.payload = w.take();
    (void)site_.messages().send(std::move(m));
  }
}

void AttractionMemory::take_over_shard(std::uint32_t s, bool rebuild) {
  const std::uint64_t epoch = next_epoch(s);
  leases_[s] = ShardLease{site_.id(), epoch};
  max_epoch_seen_[s] = epoch;
  announce_leases({{s, site_.id(), epoch}});
  SDVM_DEBUG(site_.tag()) << "took over shard " << s << " at epoch " << epoch
                          << (rebuild ? " (rebuilding)" : "");
  if (rebuild) {
    begin_rebuild(s);
  } else {
    drain_parked(s);
  }
}

void AttractionMemory::begin_rebuild(std::uint32_t s) {
  ShardRebuild& rb = rebuilds_[s];
  rb.active = true;
  rb.started_at = site_.clock().now();
  rb.epoch = leases_[s].epoch;
  rb.awaiting = 0;
  // Seed from what we physically hold, then ask every live site to
  // re-register its objects of the shard.
  for (const auto& [addr, obj] : objects_) {
    if (shard_of(addr) != s) continue;
    auto& e = directory_[addr];
    if (e.owner == kInvalidSite) {
      e.owner = site_.id();
      e.program = obj.program;
    }
  }
  ShardRecover rec{s, rb.epoch};
  ByteWriter w;
  rec.serialize(w);
  const std::vector<std::byte> payload = w.take();
  for (SiteId id : site_.cluster().live_sites()) {
    if (id == site_.id()) continue;
    SdMessage m;
    m.dst = id;
    m.src_mgr = m.dst_mgr = ManagerId::kAttractionMemory;
    m.type = MsgType::kShardRecover;
    m.payload = payload;
    ++rb.awaiting;
    (void)site_.messages().request(
        std::move(m), [this, s, epoch = rb.epoch](Result<SdMessage> r) {
          ShardRebuild& rb2 = rebuilds_[s];
          if (!rb2.active || rb2.epoch != epoch) return;
          if (r.is_ok() && r.value().type == MsgType::kShardRecoverReply) {
            try {
              ByteReader rd(r.value().payload);
              auto rep = ShardRecoverReply::deserialize(rd);
              if (rep.is_ok() && rep.value().shard == s &&
                  shard_authoritative(s)) {
                for (const ShardDirEntry& e : rep.value().entries) {
                  auto& entry = directory_[e.addr];
                  if (entry.owner == kInvalidSite ||
                      (e.owner == r.value().src && entry.owner != e.owner)) {
                    entry.owner = e.owner;
                    entry.program = e.program;
                  }
                }
              }
            } catch (const DecodeError&) {
            }
          }
          if (rb2.awaiting > 0) --rb2.awaiting;
          if (rb2.awaiting == 0) complete_rebuild(s);
        });
  }
  if (rb.awaiting == 0) complete_rebuild(s);
}

void AttractionMemory::complete_rebuild(std::uint32_t s) {
  ShardRebuild& rb = rebuilds_[s];
  if (!rb.active) return;
  rb.active = false;
  last_rebuild_ns_ = std::max<Nanos>(site_.clock().now() - rb.started_at, 0);
  SDVM_INFO(site_.tag()) << "shard " << s << " rebuilt in "
                         << last_rebuild_ns_ / 1'000'000 << " ms";
  drain_parked(s);
}

void AttractionMemory::settle_leases(bool announce_held) {
  // An orphaned lease (holder no longer alive) is settled against the
  // current membership: every death updates the targets before it settles,
  // so the computed successor is never the dead site itself.
  //
  // A joiner whose live view does not yet include itself would compute
  // rendezvous targets over an incomplete membership and bounce freshly
  // received shards straight back (epoch ping-pong). Hold all lease moves
  // until the view contains us.
  const ClusterManager& cluster = site_.cluster();
  const SiteId self = site_.id();
  if (!cluster.is_alive(self)) return;
  std::vector<ShardLeaseAnnounce::Entry> announce;
  for (std::uint32_t s = 0; s < kNumShards; ++s) {
    const ShardLease l = leases_[s];
    const SiteId tgt = shard_targets_.target(s);
    if (l.holder == self) {
      // Consistent hashing remigration: hand the shard over iff the
      // rendezvous target moved away from us.
      if (tgt != self && tgt != kInvalidSite && cluster.is_alive(tgt)) {
        graceful_handoff(s, tgt, &announce);
      } else if (announce_held) {
        // Membership changed but the shard stays: re-announce it so a
        // joiner (which only ever saw deltas) converges on the full map.
        announce.push_back(ShardLeaseAnnounce::Entry{s, self, l.epoch});
      }
      continue;
    }
    const bool holder_gone =
        l.holder == kInvalidSite || !cluster.is_alive(l.holder);
    if (holder_gone && tgt != self && tgt != kInvalidSite &&
        l.holder != kInvalidSite && announce_held && cluster.is_alive(tgt)) {
      // The successor may be a joiner that never heard this lease (dead
      // holders cannot re-announce). Hand it our orphan knowledge so its
      // election runs at a proper epoch instead of being stuck: it cannot
      // bootstrap-elect (not lowest) and has nothing to succeed.
      ShardLeaseAnnounce a{{ShardLeaseAnnounce::Entry{s, l.holder, l.epoch}}};
      ByteWriter w;
      a.serialize(w);
      SdMessage m;
      m.dst = tgt;
      m.src_mgr = m.dst_mgr = ManagerId::kAttractionMemory;
      m.type = MsgType::kShardLease;
      m.payload = w.take();
      (void)site_.messages().send(std::move(m));
    }
    if (holder_gone && tgt == self) {
      // Deterministic successor election: every site computes the same
      // argmax, so exactly one elects itself. A fresh cluster (shard never
      // held) skips the rebuild; a crashed holder triggers it.
      const bool fresh = l.holder == kInvalidSite && l.epoch == 0 &&
                         max_epoch_seen_[s] == 0;
      // Only the lowest live site may bootstrap-elect a never-held shard:
      // a joiner's empty lease table looks identical to a fresh cluster,
      // and letting it claim epoch 1 while the real holder's announce is
      // still in flight creates a spurious competing authority.
      if (fresh && self != cluster.live_sites().front()) continue;
      take_over_shard(s, /*rebuild=*/!fresh);
    }
  }
  if (!announce.empty()) announce_leases(announce);
}

void AttractionMemory::track_live(SiteId id, bool alive) {
  if (alive) {
    shard_targets_.add(id);
  } else {
    shard_targets_.remove(id, site_.cluster().live_sites());
  }
}

void AttractionMemory::on_membership_change() {
  if (!site_.cluster().joined()) return;
  if (last_shard_tick_ == 0) last_shard_tick_ = site_.clock().now();
  settle_leases(/*announce_held=*/true);
}

void AttractionMemory::shard_tick() {
  if (!site_.cluster().joined()) return;
  last_shard_tick_ = site_.clock().now();
  settle_leases();
  // The tick is the renewal: it refreshes the currency that
  // shard_authoritative checks, riding the heartbeat cadence.
  const std::size_t held = shards_held();
  if (held > 0) lease_renewals_ += held;
  for (std::uint32_t s = 0; s < kNumShards; ++s) {
    ShardRebuild& rb = rebuilds_[s];
    if (rb.active &&
        last_shard_tick_ - rb.started_at > site_.config().failure_timeout) {
      // A contributor died mid-rebuild and will never reply.
      complete_rebuild(s);
    }
  }
  flush_pending_registers();
  purge_parked();
}

void AttractionMemory::send_register(GlobalAddress addr, ProgramId pid,
                                     SiteId owner, SiteId route,
                                     std::uint8_t hops) {
  ShardRegister reg{addr, pid, owner};
  ByteWriter w;
  reg.serialize(w);
  SdMessage m;
  m.dst = route;
  m.src_mgr = m.dst_mgr = ManagerId::kAttractionMemory;
  m.type = MsgType::kShardRegister;
  m.hops = hops;
  m.payload = w.take();
  (void)site_.messages().send(std::move(m));
}

void AttractionMemory::flush_pending_registers() {
  if (pending_registers_.empty()) return;
  std::vector<ShardDirEntry> keep;
  for (const ShardDirEntry& e : pending_registers_) {
    const std::uint32_t s = shard_of(e.addr);
    if (shard_authoritative(s)) {
      auto& entry = directory_[e.addr];
      if (entry.owner == kInvalidSite) {
        entry.owner = e.owner;
        entry.program = e.program;
      }
      continue;
    }
    const SiteId route = route_of(s);
    if (route != site_.id() && route != kInvalidSite) {
      send_register(e.addr, e.program, e.owner, route, 0);
    } else {
      keep.push_back(e);
    }
  }
  pending_registers_ = std::move(keep);
}

void AttractionMemory::reject_stale(const SdMessage& msg, std::uint32_t s) {
  ++stale_epoch_rejects_;
  ShardStale st{s, kInvalidSite, 0};
  const ShardLease& l = leases_[s];
  if (l.holder != kInvalidSite && l.holder != site_.id() &&
      site_.cluster().is_alive(l.holder)) {
    // Real lease knowledge: the requester can merge it.
    st.holder = l.holder;
    st.epoch = l.epoch;
  } else {
    // Best-effort hint only (epoch 0 so it never pollutes lease tables).
    st.holder = shard_targets_.target(s);
  }
  ByteWriter w;
  st.serialize(w);
  SdMessage reply;
  reply.src_mgr = reply.dst_mgr = ManagerId::kAttractionMemory;
  reply.type = MsgType::kShardStale;
  reply.payload = w.take();
  (void)site_.messages().respond(msg, std::move(reply));
}

void AttractionMemory::park_remote(const SdMessage& msg, std::uint32_t s,
                                   Nanos parked_at) {
  auto& q = parked_remote_[s];
  if (q.size() >= 4096) {
    // Overload guard: answer miss instead of queueing without bound.
    if (msg.type == MsgType::kObjectRequest) {
      SdMessage miss;
      miss.src_mgr = miss.dst_mgr = ManagerId::kAttractionMemory;
      miss.type = MsgType::kObjectMiss;
      (void)site_.messages().respond(msg, std::move(miss));
    }
    return;
  }
  q.push_back(ParkedShardMsg{msg, parked_at});
}

void AttractionMemory::park_local_fetch(GlobalAddress addr) {
  // emplace keeps the original parked_at on a re-park, so the TTL is
  // measured from the first attempt.
  parked_local_.emplace(addr, site_.clock().now());
}

void AttractionMemory::drain_parked(std::uint32_t s) {
  if (!parked_remote_[s].empty()) {
    std::deque<ParkedShardMsg> q;
    q.swap(parked_remote_[s]);
    for (ParkedShardMsg& p : q) {
      if (p.msg.type == MsgType::kObjectRequest) {
        process_object_request(p.msg, p.parked_at);
      } else if (p.msg.type == MsgType::kShardRegister) {
        process_register(p.msg, p.parked_at);
      }
    }
  }
  std::vector<GlobalAddress> local;
  for (const auto& [addr, t] : parked_local_) {
    if (shard_of(addr) == s) local.push_back(addr);
  }
  for (GlobalAddress a : local) {
    const Nanos t0 = parked_local_[a];
    parked_local_.erase(a);
    if (fetching_.contains(a)) begin_fetch(a);
    // If begin_fetch re-parked, keep the original TTL clock.
    if (auto it = parked_local_.find(a); it != parked_local_.end()) {
      it->second = t0;
    }
  }
}

void AttractionMemory::purge_parked() {
  const Nanos ttl = 4 * site_.config().failure_timeout;
  const Nanos now = site_.clock().now();
  for (std::uint32_t s = 0; s < kNumShards; ++s) {
    auto& q = parked_remote_[s];
    for (const ParkedShardMsg& p : q) {
      if (now - p.parked_at <= ttl) continue;
      if (p.msg.type == MsgType::kObjectRequest) {
        SdMessage miss;
        miss.src_mgr = miss.dst_mgr = ManagerId::kAttractionMemory;
        miss.type = MsgType::kObjectMiss;
        (void)site_.messages().respond(p.msg, std::move(miss));
      }
    }
    std::erase_if(q, [&](const ParkedShardMsg& p) {
      return now - p.parked_at > ttl;
    });
  }
  std::vector<GlobalAddress> expired;
  for (const auto& [addr, t] : parked_local_) {
    if (now - t > ttl) expired.push_back(addr);
  }
  for (GlobalAddress a : expired) {
    parked_local_.erase(a);
    fetch_retries_.erase(a);
    auto node = fetching_.extract(a);
    if (!node.empty()) {
      node.mapped()->signal(
          Status::error(ErrorCode::kNotFound, "no such object"));
    }
  }
}

void AttractionMemory::process_object_request(const SdMessage& msg,
                                              Nanos parked_at) {
  ShardRoutedRequest req;
  try {
    ByteReader r(msg.payload);
    auto parsed = ShardRoutedRequest::deserialize(r);
    if (!parsed.is_ok()) return;
    req = parsed.value();
  } catch (const DecodeError&) {
    return;
  }
  ++directory_lookups_;
  const std::uint32_t s = req.shard;
  if (shard_of(req.addr) != s) {
    // Malformed route header: never guess, answer miss.
    SdMessage miss;
    miss.src_mgr = miss.dst_mgr = ManagerId::kAttractionMemory;
    miss.type = MsgType::kObjectMiss;
    (void)site_.messages().respond(msg, std::move(miss));
    return;
  }
  max_epoch_seen_[s] = std::max(max_epoch_seen_[s], req.epoch);
  if (!shard_authoritative(s)) {
    const SiteId route = route_of(s);
    if (route == site_.id()) {
      // Authority is in flight to us (handoff/rebuild): park under TTL.
      park_remote(msg, s, parked_at);
      return;
    }
    reject_stale(msg, s);
    return;
  }
  if (req.epoch > leases_[s].epoch) {
    // The requester has proof of a newer lease naming us: adopt the epoch
    // (it refers to our own holding) rather than bouncing it back.
    leases_[s].epoch = req.epoch;
  }
  auto dit = directory_.find(req.addr);
  if (dit == directory_.end()) {
    // Registration may still be in flight (alloc races the first fetch):
    // park; the TTL purge answers miss if it never lands.
    park_remote(msg, s, parked_at);
    return;
  }
  Waiter w;
  w.requester = msg.src;
  w.reply_seq = msg.seq;
  dit->second.waiters.push_back(std::move(w));
  grant_next(req.addr);
}

void AttractionMemory::process_register(const SdMessage& msg,
                                        Nanos parked_at) {
  ShardRegister reg;
  try {
    ByteReader r(msg.payload);
    auto parsed = ShardRegister::deserialize(r);
    if (!parsed.is_ok()) return;
    reg = parsed.value();
  } catch (const DecodeError&) {
    return;
  }
  const std::uint32_t s = shard_of(reg.addr);
  if (!shard_authoritative(s)) {
    const SiteId route = route_of(s);
    if (route == site_.id() || route == kInvalidSite) {
      park_remote(msg, s, parked_at);
    } else if (msg.hops < 8) {
      // Mis-routed registration: forward toward the holder, hop-capped.
      ++stale_epoch_rejects_;
      send_register(reg.addr, reg.program, reg.owner, route,
                    static_cast<std::uint8_t>(msg.hops + 1));
    }
    return;
  }
  auto& entry = directory_[reg.addr];
  if (entry.owner == kInvalidSite) {
    entry.owner = reg.owner;
    entry.program = reg.program;
  } else if (reg.owner == msg.src && entry.owner != reg.owner) {
    // The sender physically holds the object (it re-took custody after a
    // handoff raced a recall): possession beats a stale entry.
    entry.owner = reg.owner;
    entry.program = reg.program;
  }
  drain_parked(s);
  grant_next(reg.addr);
}

}  // namespace sdvm
