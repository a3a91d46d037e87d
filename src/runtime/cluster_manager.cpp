#include "runtime/cluster_manager.hpp"

#include <algorithm>

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
  SiteInfo self;
  self.id = 1;
  self.address = site_.transport() ? site_.transport()->local_address() : "";
  self.name = site_.config().name;
  self.platform = site_.config().platform;
  self.speed = site_.config().speed;
  self.code_site = site_.config().code_distribution_site;
  self.version = 1;
  sites_[1] = std::move(self);
  mark_dirty(1);
  invalidate_alive();
}

void ClusterManager::join(const std::string& contact_address,
                          std::function<void(Status)> done) {
  join_done_ = std::move(done);
  SignOnPayload p;
  p.address = site_.transport() ? site_.transport()->local_address() : "";
  p.name = site_.config().name;
  p.platform = site_.config().platform;
  p.speed = site_.config().speed;
  p.code_site = site_.config().code_distribution_site;

  SdMessage msg;
  msg.dst = kInvalidSite;
  msg.src_mgr = msg.dst_mgr = ManagerId::kCluster;
  msg.type = MsgType::kSignOnRequest;
  msg.payload = p.serialize();
  ++signon_messages_;
  Status st = site_.messages().send_to_address(contact_address, msg);
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
  SignOnPayload p;
  p.address = site_.transport() ? site_.transport()->local_address() : "";
  p.name = site_.config().name;
  p.platform = site_.config().platform;
  p.speed = site_.config().speed;
  p.code_site = site_.config().code_distribution_site;
  SdMessage msg;
  msg.dst = kInvalidSite;
  msg.src_mgr = msg.dst_mgr = ManagerId::kCluster;
  msg.type = MsgType::kSignOnRequest;
  msg.payload = p.serialize();
  ++signon_messages_;
  (void)site_.messages().send_to_address(join_contact_, msg);
  site_.schedule_after(site_.config().failure_timeout,
                       [this] { retry_join(); });
}

void ClusterManager::announce_sign_off(SiteId successor) {
  auto& self = sites_[local_id_];
  self.alive = false;
  self.successor = successor;
  self.version++;
  mark_dirty(local_id_, kRespreadRounds);
  alive_entry_died(local_id_);

  ByteWriter w;
  w.site(local_id_);
  w.site(successor);
  for (SiteId sid : known_sites(/*alive_only=*/true)) {
    if (sid == local_id_) continue;
    SdMessage msg;
    msg.dst = sid;
    msg.src_mgr = msg.dst_mgr = ManagerId::kCluster;
    msg.type = MsgType::kSignOffNotice;
    msg.payload = w.bytes();
    (void)site_.messages().send(std::move(msg));
  }
}

Result<std::string> ClusterManager::physical_address(SiteId id) const {
  auto it = sites_.find(id);
  if (it == sites_.end()) {
    return Status::error(ErrorCode::kNotFound,
                         "unknown site " + std::to_string(id));
  }
  return it->second.address;
}

const SiteInfo* ClusterManager::find(SiteId id) const {
  auto it = sites_.find(id);
  return it == sites_.end() ? nullptr : &it->second;
}

std::vector<SiteId> ClusterManager::known_sites(bool alive_only) const {
  std::vector<SiteId> out;
  for (const auto& [id, info] : sites_) {
    if (!alive_only || info.alive) out.push_back(id);
  }
  return out;
}

std::size_t ClusterManager::cluster_size() const {
  refresh_alive_cache();
  return alive_count_;
}

void ClusterManager::refresh_alive_cache() const {
  if (!alive_dirty_) return;
  alive_count_ = 0;
  alive_peers_.clear();
  for (const auto& [id, info] : sites_) {
    if (!info.alive) continue;
    ++alive_count_;
    if (id != local_id_) alive_peers_.push_back(&info);
  }
  alive_dirty_ = false;
}

void ClusterManager::alive_entry_added(SiteId id) {
  if (!alive_dirty_) {  // else a lazy rebuild is already pending
    ++alive_count_;
    if (id != local_id_) {
      auto pos = std::lower_bound(
          alive_peers_.begin(), alive_peers_.end(), id,
          [](const SiteInfo* a, SiteId b) { return a->id < b; });
      alive_peers_.insert(pos, &sites_.find(id)->second);
    }
  }
  // The live set changed: shard rendezvous targets follow the joiner and
  // leases settle (remigration to the joiner happens here). The shard view
  // keeps its own dirty flag, so a pending rebuild of this cache does not
  // force it to be recomputed whole.
  site_.memory().on_membership_change(id, /*alive=*/true);
}

void ClusterManager::alive_entry_died(SiteId id) {
  if (!alive_dirty_) {
    --alive_count_;
    auto pos = std::lower_bound(
        alive_peers_.begin(), alive_peers_.end(), id,
        [](const SiteInfo* a, SiteId b) { return a->id < b; });
    if (pos != alive_peers_.end() && (*pos)->id == id) alive_peers_.erase(pos);
  }
  site_.memory().on_membership_change(id, /*alive=*/false);
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
  refresh_alive_cache();
  const SiteInfo* best = nullptr;
  std::vector<const SiteInfo*> candidates;
  candidates.reserve(alive_peers_.size());
  for (const SiteInfo* info : alive_peers_) {
    if (std::find(exclude.begin(), exclude.end(), info->id) !=
        exclude.end()) {
      continue;
    }
    candidates.push_back(info);
    if (info->load.queued_frames > 0 &&
        (best == nullptr ||
         info->load.queued_frames > best->load.queued_frames)) {
      best = info;
    }
  }
  if (best != nullptr) return best->id;
  if (candidates.empty()) return std::nullopt;
  return candidates[gossip_cursor_++ % candidates.size()]->id;
}

std::optional<SiteId> ClusterManager::pick_any_other() {
  refresh_alive_cache();
  if (alive_peers_.empty()) return std::nullopt;
  return alive_peers_.front()->id;  // map order: lowest live peer id
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

void ClusterManager::merge(const SiteInfo& info) {
  if (info.id == kInvalidSite || info.id == local_id_) return;
  auto it = sites_.find(info.id);
  // Death is terminal: logical ids are never reused (a returning machine
  // signs on afresh), so an "alive" entry — however new its version — must
  // never resurrect a site we already count as dead. Without this, a
  // crashed site's stale high-version self-entry keeps bouncing through
  // gossip and re-animating it mid-recovery.
  if (it != sites_.end() && !it->second.alive && info.alive) return;
  if (it == sites_.end() || info.version > it->second.version ||
      (!info.alive && it->second.alive)) {
    bool was_alive = it == sites_.end() ? true : it->second.alive;
    SiteId prior_successor =
        it == sites_.end() ? kInvalidSite : it->second.successor;
    const bool existed = it != sites_.end();
    sites_[info.id] = info;
    const bool transition = !existed || was_alive != info.alive ||
                            prior_successor != info.successor;
    mark_dirty(info.id, transition ? kRespreadRounds : 1);
    if (!existed && info.alive) {
      alive_entry_added(info.id);
    } else if (existed && was_alive && !info.alive) {
      alive_entry_died(info.id);
    }
    if (!info.alive && info.successor == kInvalidSite &&
        prior_successor != kInvalidSite) {
      // Keep a known successor; a bare death verdict carries none.
      sites_[info.id].successor = prior_successor;
    }
    if (was_alive && !info.alive && info.successor == kInvalidSite) {
      // Learned of a crash via gossip.
      site_.on_site_dead(info.id);
    }
  }
}

void ClusterManager::note_heard(SiteId src) {
  if (src == kInvalidSite || src == local_id_) return;
  last_heard_[src] = site_.clock().now();
}

std::vector<std::byte> ClusterManager::encode_cluster_list() const {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(sites_.size()));
  for (const auto& [id, info] : sites_) info.serialize(w);
  return w.take();
}

std::vector<std::byte> ClusterManager::encode_entries(
    const std::set<SiteId>& ids) const {
  ByteWriter w;
  std::uint32_t n = 0;
  for (SiteId id : ids) n += sites_.contains(id) ? 1 : 0;
  w.u32(n);
  for (SiteId id : ids) {
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
    merge(info.value());
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
        SiteId lowest = local_id_;
        for (SiteId sid : known_sites(/*alive_only=*/true)) {
          lowest = std::min(lowest, sid);
        }
        if (lowest == local_id_) {
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
        allocator = local_id_;
        for (SiteId sid : known_sites(/*alive_only=*/true)) {
          allocator = std::min(allocator, sid);
        }
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
  alive_entry_added(new_id);

  refresh_local_info();
  ++sites_admitted_;
  send_sign_on_reply(info.address, new_id);
  // Announce the admission to every live member right away. Round-robin
  // gossip alone spreads a new entry too slowly for large rings: the new
  // site's ring neighbors must learn to heartbeat it (and expect its
  // heartbeats) within one failure timeout, or they would judge each
  // other dead while the epidemic is still propagating.
  std::set<SiteId> added{new_id};
  auto entry = encode_entries(added);
  std::vector<SdMessage> burst;
  for (const auto& [sid, si] : sites_) {
    if (!si.alive || sid == local_id_ || sid == new_id) continue;
    SdMessage msg;
    msg.dst = sid;
    msg.src_mgr = msg.dst_mgr = ManagerId::kCluster;
    msg.type = MsgType::kSiteGossip;
    msg.payload = entry;
    ++signon_messages_;
    burst.push_back(std::move(msg));
  }
  (void)site_.messages().send_burst(std::move(burst));
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
      SiteInfo self;
      self.id = local_id_;
      self.address =
          site_.transport() ? site_.transport()->local_address() : "";
      self.name = site_.config().name;
      self.platform = site_.config().platform;
      self.speed = site_.config().speed;
      self.code_site = site_.config().code_distribution_site;
      self.version = 1;
      sites_[local_id_] = std::move(self);
      mark_dirty(local_id_, kRespreadRounds);
      invalidate_alive();
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
          // Flip the entry before notifying: alive_entry_died triggers
          // shard-lease settlement, which must observe the departure (else
          // the settle runs against the pre-death view and nothing ever
          // re-fires — mark_dead and the failure detector both skip
          // entries that are already !alive).
          it->second.alive = false;
          it->second.successor = successor;
          it->second.version++;
          mark_dirty(departing, kRespreadRounds);
          if (was_alive) alive_entry_died(departing);
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
        if (info.is_ok()) merge(info.value());
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
  alive_entry_died(id);
  ++deaths_detected_;
  SDVM_WARN(site_.tag()) << "site " << id << " declared dead";
  site_.on_site_dead(id);
  if (gossip) {
    ByteWriter w;
    w.site(id);
    std::vector<SdMessage> burst;
    for (SiteId sid : known_sites(/*alive_only=*/true)) {
      if (sid == local_id_) continue;
      SdMessage msg;
      msg.dst = sid;
      msg.src_mgr = msg.dst_mgr = ManagerId::kCluster;
      msg.type = MsgType::kSiteDead;
      msg.payload = w.bytes();
      burst.push_back(std::move(msg));
    }
    (void)site_.messages().send_burst(std::move(burst));
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
    std::vector<SdMessage> burst;
    for (SiteId sid : known_sites(/*alive_only=*/true)) {
      if (sid == local_id_) continue;
      SdMessage msg;
      msg.dst = sid;
      msg.src_mgr = msg.dst_mgr = ManagerId::kCluster;
      msg.type = MsgType::kSignOffNotice;
      msg.payload = w.bytes();
      burst.push_back(std::move(msg));
    }
    (void)site_.messages().send_burst(std::move(burst));
  }
}

void ClusterManager::on_tick() {
  if (local_id_ == kInvalidSite) return;
  Nanos now = site_.clock().now();
  ++tick_count_;
  refresh_local_info();

  // The ring order below depends on `live` being sorted by id. The cached
  // peer vector already is (map order); splicing our own id in costs one
  // flat copy per tick instead of an O(n) map walk.
  refresh_alive_cache();
  std::vector<SiteId> live;
  live.reserve(alive_peers_.size() + 1);
  for (const SiteInfo* p : alive_peers_) live.push_back(p->id);
  if (auto self = sites_.find(local_id_);
      self != sites_.end() && self->second.alive) {
    live.insert(std::lower_bound(live.begin(), live.end(), local_id_),
                local_id_);
  }
  const int fanout = site_.config().heartbeat_fanout;
  const bool ring =
      fanout > 0 && live.size() > static_cast<std::size_t>(fanout) + 1;

  // Heartbeat targets: the whole membership (paper behavior), or with a
  // fanout the k ring successors by sorted live id — O(k) per tick, so a
  // 1000-site cluster no longer pays a quadratic heartbeat storm.
  std::vector<SiteId> targets;
  std::vector<SiteId> monitored;  // who heartbeats *us* → who we may judge
  if (!ring) {
    for (SiteId sid : live) {
      if (sid != local_id_) targets.push_back(sid);
    }
    monitored = targets;
  } else {
    const std::size_t n = live.size();
    std::size_t pos = static_cast<std::size_t>(
        std::lower_bound(live.begin(), live.end(), local_id_) - live.begin());
    for (int i = 1; i <= fanout; ++i) {
      targets.push_back(live[(pos + static_cast<std::size_t>(i)) % n]);
      monitored.push_back(live[(pos + n - static_cast<std::size_t>(i)) % n]);
    }
  }

  ByteWriter w;
  sites_[local_id_].serialize(w);
  std::vector<SdMessage> beats;
  for (SiteId sid : targets) {
    SdMessage msg;
    msg.dst = sid;
    msg.src_mgr = msg.dst_mgr = ManagerId::kCluster;
    msg.type = MsgType::kHeartbeat;
    msg.payload = w.bytes();
    ++heartbeats_sent_;
    beats.push_back(std::move(msg));
  }
  (void)site_.messages().send_burst(std::move(beats));

  // Failure detection: no traffic within the timeout → dead. Only the
  // peers that heartbeat *us* are judged — in ring mode everyone else's
  // silence means nothing. The judging clock starts when a peer becomes
  // monitored, not when we first learned of it: ring positions shift
  // with every membership change, and a freshly adjacent predecessor is
  // granted a full timeout to learn that we are now its successor.
  {
    std::map<SiteId, Nanos> since;
    for (SiteId sid : monitored) {
      auto it = monitored_since_.find(sid);
      since[sid] = it != monitored_since_.end() ? it->second : now;
    }
    monitored_since_ = std::move(since);  // forget peers that rotated out
  }
  Nanos timeout = site_.config().failure_timeout;
  for (SiteId sid : monitored) {
    auto info = sites_.find(sid);
    if (info == sites_.end() || !info->second.alive) continue;
    Nanos base = monitored_since_[sid];
    if (auto heard = last_heard_.find(sid); heard != last_heard_.end()) {
      base = std::max(base, heard->second);
    }
    if (now - base > timeout) {
      mark_dead(sid, /*gossip=*/true);
    }
  }

  // Gossip to one peer, round-robin: the full list, or in delta mode the
  // entries still within their re-dissemination budget (receivers
  // re-dirty membership transitions for kRespreadRounds, so those keep
  // spreading epidemically) with a full anti-entropy list every 16th
  // tick.
  auto peers = std::move(live);
  std::erase(peers, local_id_);
  if (!peers.empty()) {
    const bool delta = site_.config().gossip_delta && tick_count_ % 16 != 0;
    SdMessage msg;
    // Offset the round-robin phase by our id: every member advances its
    // cursor once per tick, so without the offset all senders sweep the
    // sorted peer list in lockstep and each tick concentrates the whole
    // cluster's gossip on one or two sites — the rest hear nothing until
    // the window reaches them, which at hundreds of members takes longer
    // than a failure timeout (and starves re-convergence after a healed
    // cut). The prime multiplier spreads adjacent ids across the list.
    msg.dst = peers[(gossip_cursor_++ +
                     static_cast<std::size_t>(local_id_) * 7919u) %
                    peers.size()];
    msg.src_mgr = msg.dst_mgr = ManagerId::kCluster;
    msg.type = MsgType::kSiteGossip;
    if (delta) {
      std::set<SiteId> dirty_now;
      for (const auto& [id, rounds] : dirty_) dirty_now.insert(id);
      msg.payload = encode_entries(dirty_now);
    } else {
      msg.payload = encode_cluster_list();
    }
    (void)site_.messages().send(std::move(msg));
  }
  for (auto it = dirty_.begin(); it != dirty_.end();) {
    it = --it->second <= 0 ? dirty_.erase(it) : std::next(it);
  }
}

}  // namespace sdvm
