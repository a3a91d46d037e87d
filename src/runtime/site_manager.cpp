#include "runtime/site_manager.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "runtime/site.hpp"

namespace sdvm {

LoadStats SiteManager::collect_load() const {
  LoadStats s;
  s.queued_frames =
      static_cast<std::uint32_t>(site_.scheduling().queued_total());
  s.running = static_cast<std::uint32_t>(site_.processing().running());
  s.programs =
      static_cast<std::uint32_t>(site_.programs().active_count());
  s.executed_total = site_.processing().executed();
  return s;
}

void SiteManager::query_cluster_status(ClusterStatusCallback done,
                                       Nanos timeout) {
  struct QueryState {
    ClusterStatus status;
    std::set<SiteId> awaiting;
    ClusterStatusCallback done;
    bool fired = false;
  };
  auto state = std::make_shared<QueryState>();
  state->status.queried_from = site_.id();
  state->status.sites.push_back(site_.introspect());
  state->done = std::move(done);

  auto finish = [state] {
    if (state->fired) return;
    state->fired = true;
    for (SiteId sid : state->awaiting) {
      state->status.unreachable.push_back(sid);
    }
    std::sort(state->status.sites.begin(), state->status.sites.end(),
              [](const SiteStatus& a, const SiteStatus& b) {
                return a.id < b.id;
              });
    state->done(std::move(state->status));
  };

  std::vector<SiteId> peers = site_.cluster().live_sites();
  std::erase(peers, site_.id());
  for (SiteId sid : peers) state->awaiting.insert(sid);
  if (state->awaiting.empty()) {
    finish();
    return;
  }

  // Carry our physical address: a freshly joined observer may not be in
  // every peer's membership view yet, and the reply must route back.
  ByteWriter addr_w;
  addr_w.str(site_.transport() ? site_.transport()->local_address() : "");
  auto addr_payload = addr_w.take();

  for (SiteId sid : peers) {
    SdMessage req;
    req.dst = sid;
    req.src_mgr = req.dst_mgr = ManagerId::kSite;
    req.type = MsgType::kMetricsQuery;
    req.payload = addr_payload;
    (void)site_.messages().request(
        req, [state, finish, sid](Result<SdMessage> r) {
          if (state->fired) return;
          bool got = false;
          if (r.is_ok() && r.value().type == MsgType::kMetricsReply) {
            ByteReader rd(r.value().payload);
            auto ss = SiteStatus::deserialize(rd);
            if (ss.is_ok()) {
              state->status.sites.push_back(std::move(ss).value());
              got = true;
            }
          }
          if (!got) state->status.unreachable.push_back(sid);
          state->awaiting.erase(sid);
          if (state->awaiting.empty()) finish();
        });
  }
  site_.schedule_after(timeout, finish);
}

void SiteManager::handle(const SdMessage& msg) {
  switch (msg.type) {
    case MsgType::kMetricsQuery: {
      SdMessage reply;
      reply.src_mgr = reply.dst_mgr = ManagerId::kSite;
      reply.type = MsgType::kMetricsReply;
      ByteWriter w;
      site_.introspect().serialize(w);
      reply.payload = w.take();
      // The query may carry the querier's physical address — use it when
      // the membership view cannot route the reply (fresh observer whose
      // sign-on has not gossiped to us yet).
      std::string direct_addr;
      if (!msg.payload.empty()) {
        try {
          ByteReader r(msg.payload);
          direct_addr = r.str();
        } catch (const DecodeError&) {
          // best-effort hint; fall through to membership routing
        }
      }
      bool routable = msg.src == site_.id() ||
                      site_.cluster().physical_address(msg.src) != nullptr;
      if (routable || direct_addr.empty()) {
        (void)site_.messages().respond(msg, std::move(reply));
      } else {
        reply.dst = msg.src;
        reply.reply_to = msg.seq;
        (void)site_.messages().send_to_address(direct_addr,
                                               std::move(reply));
      }
      break;
    }
    default:
      SDVM_WARN(site_.tag()) << "site manager: unexpected "
                             << to_string(msg.type);
  }
}

}  // namespace sdvm
