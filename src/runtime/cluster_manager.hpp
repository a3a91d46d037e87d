// Cluster manager: maintains the cluster list, handles sign-on / sign-off,
// allocates logical site ids (three strategies from paper §4), gossips
// site information "by and by", tracks load statistics for help-target
// selection, and runs the heartbeat failure detector feeding the crash
// manager.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/status.hpp"
#include "runtime/cluster_info.hpp"
#include "runtime/message.hpp"
#include "runtime/metrics.hpp"

namespace sdvm {

class Site;

class ClusterManager {
 public:
  explicit ClusterManager(Site& site) : site_(site) {}

  // --- identity / membership ---------------------------------------------
  /// First site of a new cluster: self-assigns id 1 (implicitly the central
  /// contact site for id allocation).
  void bootstrap();

  /// Joins via a site already in the cluster ("the (ip) address of a site
  /// which is already part of the cluster" is all that is needed).
  void join(const std::string& contact_address,
            std::function<void(Status)> done);

  /// Graceful departure: relocation is coordinated by the Site; this
  /// broadcasts the sign-off notice with our successor.
  void announce_sign_off(SiteId successor);

  [[nodiscard]] bool joined() const { return local_id_ != kInvalidSite; }
  [[nodiscard]] SiteId local_id() const { return local_id_; }

  // --- cluster list --------------------------------------------------------
  /// The site's physical (transport) address; null for an unknown id.
  /// Entries are never erased, so the pointer stays valid.
  [[nodiscard]] const std::string* physical_address(SiteId id) const;
  [[nodiscard]] const SiteInfo* find(SiteId id) const;
  /// Every live site, us included, sorted by id: the one membership view
  /// the other managers ask. Kept at each alive transition, never rebuilt.
  [[nodiscard]] const std::vector<SiteId>& live_sites() const { return live_; }
  [[nodiscard]] bool is_alive(SiteId id) const;
  [[nodiscard]] std::size_t cluster_size() const { return live_.size(); }

  /// Follows sign-off successor chains to a live site (routing for
  /// messages addressed to departed sites' memory directories).
  [[nodiscard]] SiteId resolve_successor(SiteId id) const;

  /// Load-informed help-target choice: "choose a site which is probably
  /// not idle itself" — prefers the known site with the most queued work.
  [[nodiscard]] std::optional<SiteId> pick_help_target(
      const std::vector<SiteId>& exclude = {});

  /// The lowest-id live site other than us: where a graceful sign-off
  /// relocates our state.
  [[nodiscard]] std::optional<SiteId> pick_any_other() const;

  /// Live sites advertising themselves as code distribution sites (§4).
  [[nodiscard]] std::vector<SiteId> code_distribution_sites() const;

  // --- maintenance ----------------------------------------------------------
  void handle(const SdMessage& msg);
  /// Periodic: emits heartbeats, checks failure timeouts, gossips.
  void on_tick();
  /// Refreshes our own SiteInfo (load stats) before it is piggybacked.
  void refresh_local_info();
  /// Merges a received SiteInfo (gossip, piggyback) — higher version wins.
  void merge(SiteInfo info);
  [[nodiscard]] SiteInfo local_info() const;

  /// Marks a site dead (failure detector or external verdict) and gossips
  /// the fact. Idempotent.
  void mark_dead(SiteId id, bool gossip);

  /// Liveness input: any message from `src` proves it alive right now.
  void note_heard(SiteId src);

  /// Records (and optionally gossips) that `heir` took over a dead site's
  /// addresses — used by crash recovery to keep global addresses routable.
  void set_successor(SiteId dead, SiteId heir, bool gossip);

  /// Cheap gossip payload: every site we know, serialized.
  [[nodiscard]] std::vector<std::byte> encode_cluster_list() const;
  void absorb_cluster_list(ByteReader& r);

  /// Registers this manager's instruments ("cluster." prefix).
  void register_metrics(metrics::MetricsRegistry& registry);

 private:
  // Instruments (read "cluster.*" through Site::introspect()).
  metrics::Counter signon_messages_;
  metrics::Counter sites_admitted_;      // joins we completed
  metrics::Counter sign_offs_received_;  // graceful leaves we learned of
  metrics::Counter deaths_detected_;     // failure-detector verdicts
  metrics::Counter heartbeats_sent_;
  metrics::Counter heartbeats_received_;

  void handle_sign_on_request(const SdMessage& msg);
  void complete_sign_on(const SdMessage& original_request, SiteId new_id);
  void send_sign_on_reply(const std::string& address, SiteId new_id);
  Status send_sign_on(const std::string& contact_address);
  /// Our own entry as it first enters the cluster list (version 1).
  [[nodiscard]] SiteInfo fresh_local_info() const;
  /// Same wire format as encode_cluster_list, restricted to the entries
  /// still in dirty_ (delta gossip).
  [[nodiscard]] std::vector<std::byte> encode_dirty() const;
  /// The one place `id` enters or leaves live_: forwards the change to the
  /// shard targets and, with `settle`, settles shard leases against it.
  void set_alive(SiteId id, bool alive, bool settle = true);
  [[nodiscard]] std::optional<SiteId> try_allocate_id();
  void request_id_block(std::function<void()> then);

  Site& site_;
  void retry_join();

  SiteId local_id_ = kInvalidSite;
  std::string join_contact_;
  std::map<SiteId, SiteInfo> sites_;
  std::function<void(Status)> join_done_;

  // Id allocation state (strategy-dependent).
  SiteId next_central_id_ = 2;        // central: site 1's counter
  std::vector<SiteId> id_block_;      // contingent: our pool of free ids
  SiteId contingent_next_ = 0;        // contingent: site 1's block counter
  static constexpr SiteId kBlockSize = 8;
  static constexpr SiteId kModuloServers = 4;
  SiteId modulo_counter_ = 0;         // modulo: multiples handed out so far

  // Sign-on requests parked while we fetch an id block.
  std::vector<SdMessage> parked_sign_ons_;
  std::size_t gossip_cursor_ = 0;
  /// Last evidence of life for each currently monitored peer: the tick on
  /// which it became monitored, raised by every message heard from it
  /// since. Ring positions shift as membership changes; a site that just
  /// became one of our predecessors gets a fresh timeout window before we
  /// judge its silence — it may only now be learning that we are its
  /// successor. Traffic heard before monitoring began is never later than
  /// that tick, so it needs no record.
  std::map<SiteId, Nanos> last_evidence_;

  /// How many delta-gossip rounds a *membership transition* (new member,
  /// death, successor change) keeps being re-advertised. One round is not
  /// enough: the epidemic saturates within a tick or two and stops — a
  /// rack cut off when a death was detected would afterwards only learn
  /// of it through the rare full anti-entropy list. SWIM-style bounded
  /// re-dissemination (~log₂ n rounds at the 1000-site ceiling) floods a
  /// healed cut from every side within a second. Plain load/version
  /// churn stays single-shot — each tick refreshes it anyway.
  static constexpr int kRespreadRounds = 8;
  /// Entries changed since the last delta-gossip round, with the number
  /// of rounds they remain in the delta payload.
  void mark_dirty(SiteId id, int rounds = 1) {
    int& r = dirty_[id];
    r = std::max(r, rounds);
  }
  std::map<SiteId, int> dirty_;
  /// Ids of the entries in sites_ that are alive, sorted. sites_ never
  /// erases (death is terminal), so this is always a subset of its keys.
  std::vector<SiteId> live_;
  std::uint64_t tick_count_ = 0;
};

}  // namespace sdvm
