#include "runtime/cluster_manager.hpp"

#include <algorithm>
#include <iterator>

#include "runtime/site.hpp"

namespace sdvm {

namespace {

struct SignOnPayload {
  std::string address;
  std::string name;
  PlatformId platform;
  double speed = 1.0;
  bool code_site = false;

  std::vector<std::byte> serialize() const {
    ByteWriter w;
    w.str(address);
    w.str(name);
    w.str(platform);
    w.f64(speed);
    w.boolean(code_site);
    return w.take();
  }
  static Result<SignOnPayload> deserialize(std::span<const std::byte> b) {
    try {
      ByteReader r(b);
      SignOnPayload p;
      p.address = r.str();
      p.name = r.str();
      p.platform = r.str();
      p.speed = r.f64();
      p.code_site = r.boolean();
      return p;
    } catch (const DecodeError& e) {
      return Status::error(ErrorCode::kCorrupt,
                           std::string("bad sign-on: ") + e.what());
    }
  }
};

}  // namespace

void ClusterManager::register_metrics(metrics::MetricsRegistry& registry) {
  registry.register_counter("cluster.signon_messages", &signon_messages_);
  registry.register_counter("cluster.sites_admitted", &sites_admitted_);
  registry.register_counter("cluster.sign_offs_received",
                            &sign_offs_received_);
  registry.register_counter("cluster.deaths_detected", &deaths_detected_);
  registry.register_counter("cluster.heartbeats_sent", &heartbeats_sent_);
  registry.register_counter("cluster.heartbeats_received",
                            &heartbeats_received_);
  registry.register_gauge("cluster.live_sites", [this] {
    return static_cast<std::int64_t>(cluster_size());
  });
}

void ClusterManager::bootstrap() {
  local_id_ = 1;
  next_central_id_ = 2;
  contingent_next_ = 2;
  sites_[1] = fresh_local_info();
  mark_dirty(1);
  // Site::bootstrap settles the leases once the site is fully set up.
  set_alive(1, true, /*settle=*/false);
}

SiteInfo ClusterManager::fresh_local_info() const {
  SiteInfo self;
  self.id = local_id_;
  self.address = site_.transport() ? site_.transport()->local_address() : "";
  self.name = site_.config().name;
  self.platform = site_.config().platform;
  self.speed = site_.config().speed;
  self.code_site = site_.config().code_distribution_site;
  self.version = 1;
  return self;
}

Status ClusterManager::send_sign_on(const std::string& contact_address) {
  const SiteInfo self = fresh_local_info();
  SignOnPayload p;
  p.address = self.address;
  p.name = self.name;
  p.platform = self.platform;
  p.speed = self.speed;
  p.code_site = self.code_site;

  SdMessage msg;
  msg.dst = kInvalidSite;
  msg.src_mgr = msg.dst_mgr = ManagerId::kCluster;
  msg.type = MsgType::kSignOnRequest;
  msg.payload = p.serialize();
  ++signon_messages_;
  return site_.messages().send_to_address(contact_address, msg);
}

void ClusterManager::join(const std::string& contact_address,
                          std::function<void(Status)> done) {
  join_done_ = std::move(done);
  Status st = send_sign_on(contact_address);
  if (!st.is_ok() && join_done_) {
    auto cb = std::move(join_done_);
    join_done_ = nullptr;
    cb(st);
    return;
  }
  // The request can be lost: the contact may forward it to an allocator
  // that just died (the reply then never comes). Re-send until the
  // allocator takeover makes a live site answer; duplicate sign-ons are
  // deduplicated by physical address on the receiving side.
  join_contact_ = contact_address;
  site_.schedule_after(site_.config().failure_timeout,
                       [this] { retry_join(); });
}

void ClusterManager::retry_join() {
  if (joined() || join_contact_.empty()) return;
  (void)send_sign_on(join_contact_);
  site_.schedule_after(site_.config().failure_timeout,
                       [this] { retry_join(); });
}

void ClusterManager::announce_sign_off(SiteId successor) {
  auto& self = sites_[local_id_];
  self.alive = false;
  self.successor = successor;
  self.version++;
  mark_dirty(local_id_, kRespreadRounds);
  set_alive(local_id_, false);

  ByteWriter w;
  w.site(local_id_);
  w.site(successor);
  SdMessage notice;
  notice.src_mgr = notice.dst_mgr = ManagerId::kCluster;
  notice.type = MsgType::kSignOffNotice;
  notice.payload = w.take();
  site_.messages().broadcast(notice, live_);
}

const std::string* ClusterManager::physical_address(SiteId id) const {
  const SiteInfo* info = find(id);
  return info == nullptr ? nullptr : &info->address;
}

const SiteInfo* ClusterManager::find(SiteId id) const {
  auto it = sites_.find(id);
  return it == sites_.end() ? nullptr : &it->second;
}

bool ClusterManager::is_alive(SiteId id) const {
  return std::binary_search(live_.begin(), live_.end(), id);
}

void ClusterManager::set_alive(SiteId id, bool alive, bool settle) {
  auto pos = std::lower_bound(live_.begin(), live_.end(), id);
  const bool listed = pos != live_.end() && *pos == id;
  if (alive != listed) {
    if (alive) {
      live_.insert(pos, id);
    } else {
      live_.erase(pos);
    }
    // Shard rendezvous targets follow the joiner or leaver.
    site_.memory().track_live(id, alive);
  }
  // Leases settle against the new view (remigration to a joiner, successor
  // election for a leaver's shards).
  if (settle) site_.memory().on_membership_change();
}

SiteId ClusterManager::resolve_successor(SiteId id) const {
  // Follow sign-off forwarding chains, bounded against cycles.
  for (int hops = 0; hops < 64; ++hops) {
    auto it = sites_.find(id);
    if (it == sites_.end() || it->second.alive ||
        it->second.successor == kInvalidSite) {
      return id;
    }
    id = it->second.successor;
  }
  return id;
}

std::optional<SiteId> ClusterManager::pick_help_target(
    const std::vector<SiteId>& exclude) {
  // "Choose a site which is probably not idle itself": prefer the highest
  // known queued work; fall back to round-robin over peers.
  const SiteInfo* best = nullptr;
  std::vector<SiteId> candidates;
  candidates.reserve(live_.size());
  for (const auto& [id, info] : sites_) {
    if (!info.alive || id == local_id_ ||
        std::find(exclude.begin(), exclude.end(), id) != exclude.end()) {
      continue;
    }
    candidates.push_back(id);
    if (info.load.queued_frames > 0 &&
        (best == nullptr ||
         info.load.queued_frames > best->load.queued_frames)) {
      best = &info;
    }
  }
  if (best != nullptr) return best->id;
  if (candidates.empty()) return std::nullopt;
  return candidates[gossip_cursor_++ % candidates.size()];
}

std::optional<SiteId> ClusterManager::pick_any_other() const {
  for (SiteId id : live_) {
    if (id != local_id_) return id;
  }
  return std::nullopt;
}

std::vector<SiteId> ClusterManager::code_distribution_sites() const {
  std::vector<SiteId> out;
  for (const auto& [id, info] : sites_) {
    if (info.alive && info.code_site) out.push_back(id);
  }
  return out;
}

void ClusterManager::refresh_local_info() {
  if (local_id_ == kInvalidSite) return;
  auto& self = sites_[local_id_];
  self.load = site_.site_manager().collect_load();
  self.version++;
  mark_dirty(local_id_);
}

SiteInfo ClusterManager::local_info() const {
  auto it = sites_.find(local_id_);
  return it == sites_.end() ? SiteInfo{} : it->second;
}

void ClusterManager::merge(SiteInfo info) {
  const SiteId id = info.id;
  if (id == kInvalidSite || id == local_id_) return;
  auto it = sites_.find(id);
  const bool existed = it != sites_.end();
  // Death is terminal: logical ids are never reused (a returning machine
  // signs on afresh), so an "alive" entry — however new its version — must
  // never resurrect a site we already count as dead. Without this, a
  // crashed site's stale high-version self-entry keeps bouncing through
  // gossip and re-animating it mid-recovery.
  if (existed && !it->second.alive && info.alive) return;
  if (existed && info.version <= it->second.version &&
      (info.alive || !it->second.alive)) {
    return;
  }
  const bool was_alive = existed ? it->second.alive : true;
  const SiteId prior_successor =
      existed ? it->second.successor : kInvalidSite;
  const bool alive = info.alive;
  const SiteId successor = info.successor;
  if (existed) {
    it->second = std::move(info);
  } else {
    it = sites_.emplace(id, std::move(info)).first;
  }
  const bool transition =
      !existed || was_alive != alive || prior_successor != successor;
  mark_dirty(id, transition ? kRespreadRounds : 1);
  if (!existed && alive) {
    set_alive(id, true);
  } else if (existed && was_alive && !alive) {
    set_alive(id, false);
  }
  if (!alive && successor == kInvalidSite && prior_successor != kInvalidSite) {
    // Keep a known successor; a bare death verdict carries none.
    it->second.successor = prior_successor;
  }
  if (was_alive && !alive && successor == kInvalidSite) {
    // Learned of a crash via gossip.
    site_.on_site_dead(id);
  }
}

void ClusterManager::note_heard(SiteId src) {
  // Only the silence of monitored peers is judged; anyone else's traffic
  // proves nothing we would use.
  if (auto it = last_evidence_.find(src); it != last_evidence_.end()) {
    it->second = site_.clock().now();
  }
}

std::vector<std::byte> ClusterManager::encode_cluster_list() const {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(sites_.size()));
  for (const auto& [id, info] : sites_) info.serialize(w);
  return w.take();
}

std::vector<std::byte> ClusterManager::encode_dirty() const {
  ByteWriter w;
  std::uint32_t n = 0;
  for (const auto& [id, rounds] : dirty_) n += sites_.contains(id) ? 1 : 0;
  w.u32(n);
  for (const auto& [id, rounds] : dirty_) {
    if (auto it = sites_.find(id); it != sites_.end()) {
      it->second.serialize(w);
    }
  }
  return w.take();
}

void ClusterManager::absorb_cluster_list(ByteReader& r) {
  std::uint32_t n = r.count(/*min_bytes_each=*/16);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto info = SiteInfo::deserialize(r);
    if (!info.is_ok()) return;
    merge(std::move(info).value());
  }
}

std::optional<SiteId> ClusterManager::try_allocate_id() {
  switch (site_.config().id_alloc) {
    case IdAllocStrategy::kCentralContact: {
      // Only the central contact site (site 1) allocates — the paper's
      // named single point of failure. When site 1 is dead, the lowest
      // live site inherits the allocator role (otherwise a daemon
      // restarted after losing site 1 could never rejoin). It starts past
      // every id it has ever seen, so inherited allocations never collide
      // with members that joined while site 1 was still alive.
      if (local_id_ == 1) return next_central_id_++;
      const SiteInfo* central = find(1);
      if (central != nullptr && !central->alive) {
        if (live_.empty() || live_.front() >= local_id_) {
          SiteId base = 1;
          for (const auto& [sid, info] : sites_) base = std::max(base, sid);
          next_central_id_ = std::max(next_central_id_, base + 1);
          return next_central_id_++;
        }
      }
      return std::nullopt;
    }

    case IdAllocStrategy::kContingent:
      if (local_id_ == 1) {
        // Site 1 owns the id space and carves blocks; it can always
        // allocate directly from the tail.
        return contingent_next_++;
      }
      if (!id_block_.empty()) {
        SiteId id = id_block_.back();
        id_block_.pop_back();
        return id;
      }
      return std::nullopt;

    case IdAllocStrategy::kModulo: {
      // First k-1 joiners become servers (ids 2..k); afterwards server i
      // emits i + n*k, so ids never collide without coordination.
      if (local_id_ == 1 && next_central_id_ <= kModuloServers) {
        return next_central_id_++;
      }
      if (local_id_ <= kModuloServers) {
        return local_id_ + (++modulo_counter_) * kModuloServers;
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

void ClusterManager::handle_sign_on_request(const SdMessage& msg) {
  ++signon_messages_;
  // A joiner behind a flaky link retries its sign-on until the deadline
  // expires; duplicates must not allocate a second logical id. If an alive
  // site already claims the request's physical address, re-send its reply.
  if (auto p = SignOnPayload::deserialize(msg.payload); p.is_ok()) {
    for (const auto& [sid, info] : sites_) {
      if (info.alive && !info.address.empty() &&
          info.address == p.value().address) {
        SDVM_DEBUG(site_.tag())
            << "duplicate sign-on from " << info.address
            << ", re-sending reply for site " << sid;
        send_sign_on_reply(info.address, sid);
        return;
      }
    }
  }
  auto id = try_allocate_id();
  if (id.has_value()) {
    complete_sign_on(msg, *id);
    return;
  }

  switch (site_.config().id_alloc) {
    case IdAllocStrategy::kCentralContact: {
      // Forward to the allocator; it replies to the joiner directly (its
      // physical address is in the payload). Normally site 1 — or, after
      // its death, the lowest live site that inherited the role.
      SiteId allocator = 1;
      const SiteInfo* central = find(1);
      if (central != nullptr && !central->alive) {
        allocator = live_.empty() ? local_id_
                                  : std::min(local_id_, live_.front());
      }
      SdMessage fwd;
      fwd.dst = allocator;
      fwd.src_mgr = fwd.dst_mgr = ManagerId::kCluster;
      fwd.type = MsgType::kSignOnRequest;
      fwd.payload = msg.payload;
      ++signon_messages_;
      (void)site_.messages().send(std::move(fwd));
      break;
    }
    case IdAllocStrategy::kContingent: {
      parked_sign_ons_.push_back(msg);
      request_id_block([this] {
        auto parked = std::move(parked_sign_ons_);
        parked_sign_ons_.clear();
        for (auto& m : parked) handle_sign_on_request(m);
      });
      break;
    }
    case IdAllocStrategy::kModulo: {
      // Not a server: forward to our designated server.
      SiteId server = (local_id_ % kModuloServers) + 1;
      if (find(server) == nullptr || !find(server)->alive) server = 1;
      SdMessage fwd;
      fwd.dst = server;
      fwd.src_mgr = fwd.dst_mgr = ManagerId::kCluster;
      fwd.type = MsgType::kSignOnRequest;
      fwd.payload = msg.payload;
      ++signon_messages_;
      (void)site_.messages().send(std::move(fwd));
      break;
    }
  }
}

void ClusterManager::complete_sign_on(const SdMessage& request, SiteId new_id) {
  auto p = SignOnPayload::deserialize(request.payload);
  if (!p.is_ok()) {
    SDVM_WARN(site_.tag()) << "malformed sign-on request";
    return;
  }
  SiteInfo info;
  info.id = new_id;
  info.address = p.value().address;
  info.name = p.value().name;
  info.platform = p.value().platform;
  info.speed = p.value().speed;
  info.code_site = p.value().code_site;
  info.version = 1;
  sites_[new_id] = info;
  mark_dirty(new_id, kRespreadRounds);
  set_alive(new_id, true);

  refresh_local_info();
  ++sites_admitted_;
  send_sign_on_reply(info.address, new_id);
  // Announce the admission to every live member right away. Round-robin
  // gossip alone spreads a new entry too slowly for large rings: the new
  // site's ring neighbors must learn to heartbeat it (and expect its
  // heartbeats) within one failure timeout, or they would judge each
  // other dead while the epidemic is still propagating.
  ByteWriter entry_w;
  entry_w.u32(1);
  info.serialize(entry_w);
  SdMessage gossip;
  gossip.src_mgr = gossip.dst_mgr = ManagerId::kCluster;
  gossip.type = MsgType::kSiteGossip;
  gossip.payload = entry_w.take();
  std::vector<SiteId> members;
  members.reserve(live_.size());
  std::remove_copy(live_.begin(), live_.end(), std::back_inserter(members),
                   new_id);
  signon_messages_ += site_.messages().broadcast(gossip, members);
  SDVM_INFO(site_.tag()) << "admitted new site " << new_id << " ("
                         << info.platform << ", speed " << info.speed << ")";
}

void ClusterManager::send_sign_on_reply(const std::string& address,
                                        SiteId new_id) {
  ByteWriter w;
  w.site(new_id);
  auto list = encode_cluster_list();
  w.raw(list.data(), list.size());

  SdMessage reply;
  reply.dst = new_id;
  reply.src_mgr = reply.dst_mgr = ManagerId::kCluster;
  reply.type = MsgType::kSignOnReply;
  reply.payload = w.take();
  ++signon_messages_;
  (void)site_.messages().send_to_address(address, std::move(reply));
}

void ClusterManager::request_id_block(std::function<void()> then) {
  SdMessage req;
  req.dst = 1;
  req.src_mgr = req.dst_mgr = ManagerId::kCluster;
  req.type = MsgType::kIdBlockRequest;
  ++signon_messages_;
  (void)site_.messages().request(
      req, [this, then = std::move(then)](Result<SdMessage> r) {
        if (!r.is_ok()) {
          SDVM_WARN(site_.tag())
              << "id block request failed: " << r.status().to_string();
          return;
        }
        try {
          ByteReader rd(r.value().payload);
          std::uint32_t n = rd.u32();
          for (std::uint32_t i = 0; i < n; ++i) {
            id_block_.push_back(rd.site());
          }
        } catch (const DecodeError&) {
          return;
        }
        if (then) then();
      });
}

void ClusterManager::handle(const SdMessage& msg) {
  switch (msg.type) {
    case MsgType::kSignOnRequest:
      handle_sign_on_request(msg);
      break;

    case MsgType::kSignOnReply: {
      if (local_id_ != kInvalidSite) break;  // duplicate reply, ignore
      try {
        ByteReader r(msg.payload);
        local_id_ = r.site();
        absorb_cluster_list(r);
      } catch (const DecodeError&) {
        break;
      }
      sites_[local_id_] = fresh_local_info();
      mark_dirty(local_id_, kRespreadRounds);
      // Our own entry enters the targets unsettled; the join callback
      // settles once the site is set up.
      set_alive(local_id_, true, /*settle=*/false);
      if (join_done_) {
        auto cb = std::move(join_done_);
        join_done_ = nullptr;
        cb(Status::ok());
      }
      break;
    }

    case MsgType::kIdBlockRequest: {
      // Only site 1 serves blocks (contingent strategy).
      ByteWriter w;
      w.u32(kBlockSize);
      for (SiteId i = 0; i < kBlockSize; ++i) w.site(contingent_next_++);
      SdMessage reply;
      reply.src_mgr = reply.dst_mgr = ManagerId::kCluster;
      reply.type = MsgType::kIdBlockReply;
      reply.payload = w.take();
      ++signon_messages_;
      (void)site_.messages().respond(msg, std::move(reply));
      break;
    }

    case MsgType::kSignOffNotice: {
      try {
        ByteReader r(msg.payload);
        SiteId departing = r.site();
        SiteId successor = r.site();
        ++sign_offs_received_;
        auto it = sites_.find(departing);
        if (it != sites_.end()) {
          const bool was_alive = it->second.alive;
          // Flip the entry before notifying: set_alive triggers
          // shard-lease settlement, which must observe the departure (else
          // the settle runs against the pre-death view and nothing ever
          // re-fires — mark_dead and the failure detector both skip
          // entries that are already !alive).
          it->second.alive = false;
          it->second.successor = successor;
          it->second.version++;
          mark_dirty(departing, kRespreadRounds);
          if (was_alive) set_alive(departing, false);
        }
      } catch (const DecodeError&) {
      }
      break;
    }

    case MsgType::kHeartbeat: {
      ++heartbeats_received_;
      try {
        ByteReader r(msg.payload);
        auto info = SiteInfo::deserialize(r);
        if (info.is_ok()) merge(std::move(info).value());
      } catch (const DecodeError&) {
      }
      break;
    }

    case MsgType::kSiteGossip: {
      try {
        ByteReader r(msg.payload);
        absorb_cluster_list(r);
      } catch (const DecodeError&) {
      }
      break;
    }

    case MsgType::kSiteDead: {
      try {
        ByteReader r(msg.payload);
        mark_dead(r.site(), /*gossip=*/false);
      } catch (const DecodeError&) {
      }
      break;
    }

    default:
      SDVM_WARN(site_.tag()) << "cluster manager: unexpected "
                             << to_string(msg.type);
  }
}

void ClusterManager::mark_dead(SiteId id, bool gossip) {
  if (id == local_id_ || id == kInvalidSite) return;
  auto it = sites_.find(id);
  if (it == sites_.end() || !it->second.alive) return;
  it->second.alive = false;
  it->second.version++;
  mark_dirty(id, kRespreadRounds);
  set_alive(id, false);
  ++deaths_detected_;
  SDVM_WARN(site_.tag()) << "site " << id << " declared dead";
  site_.on_site_dead(id);
  if (gossip) {
    ByteWriter w;
    w.site(id);
    SdMessage verdict;
    verdict.src_mgr = verdict.dst_mgr = ManagerId::kCluster;
    verdict.type = MsgType::kSiteDead;
    verdict.payload = w.take();
    site_.messages().broadcast(verdict, live_);
  }
}

void ClusterManager::set_successor(SiteId dead, SiteId heir, bool gossip) {
  if (dead == heir || dead == kInvalidSite) return;
  auto it = sites_.find(dead);
  if (it == sites_.end()) {
    // Cold-restart recovery routes ids of a previous cluster incarnation
    // that this membership never met: record a ghost entry so lookups for
    // the dead id resolve to the heir.
    SiteInfo ghost;
    ghost.id = dead;
    ghost.alive = false;
    ghost.successor = heir;
    ghost.version = 1;
    it = sites_.emplace(dead, std::move(ghost)).first;
  } else if (it->second.alive) {
    // Never let a recovery message mark a live member dead: after a full
    // restart, a previous incarnation's shard-owner ids can collide with
    // live fresh ids. Callers route genuinely dead sites via mark_dead.
    return;
  }
  it->second.alive = false;
  it->second.successor = heir;
  it->second.version++;
  mark_dirty(dead, kRespreadRounds);
  if (gossip) {
    ByteWriter w;
    w.site(dead);
    w.site(heir);
    SdMessage notice;
    notice.src_mgr = notice.dst_mgr = ManagerId::kCluster;
    notice.type = MsgType::kSignOffNotice;
    notice.payload = w.take();
    site_.messages().broadcast(notice, live_);
  }
}

void ClusterManager::on_tick() {
  if (local_id_ == kInvalidSite) return;
  Nanos now = site_.clock().now();
  ++tick_count_;
  refresh_local_info();

  // The ring order below depends on live_ being sorted by id.
  const int fanout = site_.config().heartbeat_fanout;
  const bool ring =
      fanout > 0 && live_.size() > static_cast<std::size_t>(fanout) + 1;

  // Heartbeat targets: the whole membership (paper behavior), or with a
  // fanout the k ring successors by sorted live id — O(k) per tick, so a
  // 1000-site cluster no longer pays a quadratic heartbeat storm.
  std::vector<SiteId> targets;
  std::vector<SiteId> monitored;  // who heartbeats *us* → who we may judge
  if (!ring) {
    for (SiteId sid : live_) {
      if (sid != local_id_) targets.push_back(sid);
    }
    monitored = targets;
  } else {
    const std::size_t n = live_.size();
    const std::size_t pos = static_cast<std::size_t>(
        std::lower_bound(live_.begin(), live_.end(), local_id_) -
        live_.begin());
    for (int i = 1; i <= fanout; ++i) {
      targets.push_back(live_[(pos + static_cast<std::size_t>(i)) % n]);
      monitored.push_back(live_[(pos + n - static_cast<std::size_t>(i)) % n]);
    }
  }

  ByteWriter w;
  sites_[local_id_].serialize(w);
  SdMessage beat;
  beat.src_mgr = beat.dst_mgr = ManagerId::kCluster;
  beat.type = MsgType::kHeartbeat;
  beat.payload = w.take();
  heartbeats_sent_ += site_.messages().broadcast(beat, targets);

  // Failure detection: no traffic within the timeout → dead. Only the
  // peers that heartbeat *us* are judged — in ring mode everyone else's
  // silence means nothing. The judging clock starts when a peer becomes
  // monitored, not when we first learned of it: ring positions shift
  // with every membership change, and a freshly adjacent predecessor is
  // granted a full timeout to learn that we are now its successor.
  {
    std::map<SiteId, Nanos> evidence;
    for (SiteId sid : monitored) {
      auto it = last_evidence_.find(sid);
      evidence[sid] = it != last_evidence_.end() ? it->second : now;
    }
    last_evidence_ = std::move(evidence);  // forget peers that rotated out
  }
  // Gossip below draws from the view this tick opened with: a death found
  // here leaves live_, so only then is that view kept aside.
  std::vector<SiteId> opening_view;
  Nanos timeout = site_.config().failure_timeout;
  for (SiteId sid : monitored) {
    if (!is_alive(sid)) continue;
    if (now - last_evidence_[sid] > timeout) {
      if (opening_view.empty()) opening_view = live_;
      mark_dead(sid, /*gossip=*/true);
    }
  }

  // Gossip to one peer, round-robin: the full list, or in delta mode the
  // entries still within their re-dissemination budget (receivers
  // re-dirty membership transitions for kRespreadRounds, so those keep
  // spreading epidemically) with a full anti-entropy list every 16th
  // tick.
  const std::vector<SiteId>& view =
      opening_view.empty() ? live_ : opening_view;
  const auto self_pos = static_cast<std::size_t>(
      std::lower_bound(view.begin(), view.end(), local_id_) - view.begin());
  const bool self_listed =
      self_pos < view.size() && view[self_pos] == local_id_;
  const std::size_t peers = view.size() - (self_listed ? 1 : 0);
  if (peers > 0) {
    const bool delta = site_.config().gossip_delta && tick_count_ % 16 != 0;
    SdMessage msg;
    // Offset the round-robin phase by our id: every member advances its
    // cursor once per tick, so without the offset all senders sweep the
    // sorted peer list in lockstep and each tick concentrates the whole
    // cluster's gossip on one or two sites — the rest hear nothing until
    // the window reaches them, which at hundreds of members takes longer
    // than a failure timeout (and starves re-convergence after a healed
    // cut). The prime multiplier spreads adjacent ids across the list.
    std::size_t k = (gossip_cursor_++ +
                     static_cast<std::size_t>(local_id_) * 7919u) %
                    peers;
    if (self_listed && k >= self_pos) ++k;  // skip ourselves in the view
    msg.dst = view[k];
    msg.src_mgr = msg.dst_mgr = ManagerId::kCluster;
    msg.type = MsgType::kSiteGossip;
    msg.payload = delta ? encode_dirty() : encode_cluster_list();
    (void)site_.messages().send(std::move(msg));
  }
  for (auto it = dirty_.begin(); it != dirty_.end();) {
    it = --it->second <= 0 ? dirty_.erase(it) : std::next(it);
  }
}

}  // namespace sdvm
