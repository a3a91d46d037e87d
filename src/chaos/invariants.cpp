#include "chaos/invariants.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "runtime/checkpoint_store.hpp"
#include "runtime/shard_map.hpp"
#include "runtime/site.hpp"

namespace sdvm::chaos {

std::string Violation::to_line() const {
  std::ostringstream os;
  os << "[t=" << at << "ns";
  if (event_index >= 0) {
    os << " after #" << event_index;
  } else {
    os << " at quiescence";
  }
  os << "] " << invariant << ": " << detail;
  return os.str();
}

std::vector<Violation> InvariantChecker::check(ChaosContext& ctx,
                                               int event_index) {
  std::vector<Violation> found;
  check_exit_codes(ctx, found);
  check_epochs(ctx, found);
  check_progress(ctx, found);
  check_durable_stores(ctx, found);
  if (ctx.at_quiescence) {
    check_membership(ctx, found);
    check_directory_owners(ctx, found);
    check_termination(ctx, found);
    check_program_home(ctx, found);
    check_shard_leases(ctx, found);
  }
  for (Violation& v : found) {
    v.event_index = event_index;
    v.at = ctx.cluster.now();
  }
  return found;
}

// Paper §2.2/§6: crashes are absorbed by checkpoint recovery — the program
// still commits exactly one result, and every live site that learns of the
// termination must have learned the *same* exit code.
void InvariantChecker::check_exit_codes(ChaosContext& ctx,
                                        std::vector<Violation>& out) {
  std::optional<std::int64_t> seen;
  std::size_t seen_at = 0;
  for (std::size_t i = 0; i < ctx.cluster.size(); ++i) {
    if (!ctx.live(i)) continue;
    Site& site = ctx.cluster.site(i);
    if (!site.programs().is_terminated(ctx.pid)) continue;
    std::int64_t code = site.programs().exit_code(ctx.pid).value_or(0);
    if (!seen.has_value()) {
      seen = code;
      seen_at = i;
      ctx.terminated = true;
      ctx.exit_code = code;
    } else if (*seen != code) {
      out.push_back(Violation{
          "one-committed-result",
          "site index " + std::to_string(seen_at) + " committed exit code " +
              std::to_string(*seen) + " but site index " + std::to_string(i) +
              " committed " + std::to_string(code),
          0, 0});
    }
  }
}

// Checkpoint epochs only move forward on every site: a recovery restores
// *from* the latest committed epoch, it never un-commits one.
void InvariantChecker::check_epochs(ChaosContext& ctx,
                                    std::vector<Violation>& out) {
  for (std::size_t i = 0; i < ctx.cluster.size(); ++i) {
    if (!ctx.live(i)) continue;
    auto status = ctx.cluster.status(i);
    if (!status.is_ok()) continue;
    auto epoch = static_cast<std::uint64_t>(
        status.value().metrics.gauge_value("crash.committed_epoch"));
    auto it = last_epoch_.find(i);
    // A drop to zero is the program's snapshot being cleaned up at
    // termination; only a rollback to an *earlier committed* epoch is an
    // un-commit, which recovery must never do.
    if (it != last_epoch_.end() && epoch != 0 && epoch < it->second) {
      out.push_back(Violation{
          "epoch-monotone",
          "site index " + std::to_string(i) + " committed epoch went " +
              std::to_string(it->second) + " -> " + std::to_string(epoch),
          0, 0});
    }
    last_epoch_[i] = epoch;
  }
}

// Liveness bound: with queued executable frames somewhere and no partition
// or loss window in effect, cluster-wide execution must advance within
// kProgressBound of virtual time (help requests retry on a millisecond
// scale; checkpoint freezes abort within two seconds).
void InvariantChecker::check_progress(ChaosContext& ctx,
                                      std::vector<Violation>& out) {
  std::uint64_t executed = 0;
  std::uint64_t recoveries = 0;
  std::uint32_t queued = 0;
  for (std::size_t i = 0; i < ctx.cluster.size(); ++i) {
    if (!ctx.live(i)) continue;
    auto status = ctx.cluster.status(i);
    if (!status.is_ok()) continue;
    executed += status.value().load.executed_total;
    recoveries += status.value().metrics.counter("crash.recoveries");
    queued += status.value().load.queued_frames;
  }
  Nanos now = ctx.cluster.now();
  // `executed` sums only live sites: a kill or cold restart legitimately
  // drops it below the stored baseline, and comparing future progress
  // against the stale high-water mark would mask real execution — rebase.
  // A recovery fan-out advancing is likewise the system working (frozen
  // schedulers during back-to-back recovery rounds are not starvation);
  // recoveries are death-triggered, so a wedged cluster cannot use them
  // to dodge the check forever.
  if (!progress_initialized_ || executed > last_executed_total_ ||
      executed < last_executed_total_ || recoveries != last_recoveries_ ||
      ctx.terminated || ctx.faults_active || queued == 0) {
    // Progress, or a state where stalling is legitimate: reset the clock.
    progress_initialized_ = true;
    last_executed_total_ = executed;
    last_recoveries_ = recoveries;
    last_progress_at_ = now;
    return;
  }
  if (now - last_progress_at_ > kProgressBound) {
    out.push_back(Violation{
        "no-starved-frames",
        std::to_string(queued) + " frames queued but executed_total stuck at " +
            std::to_string(executed) + " for " +
            std::to_string(now - last_progress_at_) + "ns",
        0, 0});
    last_progress_at_ = now;  // re-arm instead of repeating every check
  }
}

// After heal + settle, any two sites that still consider *each other*
// alive must agree on the whole membership view (gossip convergence,
// paper §3.4). Pairs where either side has declared the other dead are
// skipped: a partition outliving the failure timeout legitimately ends in
// mutual death verdicts, and death is terminal per logical id.
void InvariantChecker::check_membership(ChaosContext& ctx,
                                        std::vector<Violation>& out) {
  struct View {
    std::size_t index;
    SiteId id;
    std::vector<SiteId> alive;
  };
  std::vector<View> views;
  for (std::size_t i = 0; i < ctx.cluster.size(); ++i) {
    if (!ctx.live(i)) continue;
    Site& site = ctx.cluster.site(i);
    if (!site.joined()) continue;
    views.push_back(View{i, site.id(), site.cluster().live_sites()});
  }
  // Group identical views first: a converged 1000-site cluster collapses
  // to one group and the check finishes in O(n·|view|) instead of the
  // pairwise O(n²·|view|) scan. Only cross-group pairs can disagree.
  std::map<std::vector<SiteId>, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < views.size(); ++i) {
    groups[views[i].alive].push_back(i);
  }
  if (groups.size() <= 1) return;
  // live_sites() is kept sorted by id, so binary search works.
  auto sees_alive = [](const View& v, SiteId other) {
    return std::binary_search(v.alive.begin(), v.alive.end(), other);
  };
  auto render = [](const std::vector<SiteId>& ids) {
    std::string s = "{";
    for (SiteId id : ids) s += std::to_string(id) + ",";
    s += "}";
    return s;
  };
  constexpr std::size_t kMaxReported = 5;  // a diverged big run repeats fast
  std::size_t reported = 0;
  for (auto ga = groups.begin(); ga != groups.end(); ++ga) {
    for (auto gb = std::next(ga); gb != groups.end(); ++gb) {
      for (std::size_t a : ga->second) {
        for (std::size_t b : gb->second) {
          if (!sees_alive(views[a], views[b].id) ||
              !sees_alive(views[b], views[a].id)) {
            continue;
          }
          out.push_back(Violation{
              "membership-convergence",
              "site " + std::to_string(views[a].id) + " sees " +
                  render(views[a].alive) + " but site " +
                  std::to_string(views[b].id) + " sees " +
                  render(views[b].alive),
              0, 0});
          if (++reported >= kMaxReported) return;
        }
      }
    }
  }
}

// No global address may be owned by a departed site: every directory
// entry's owner must resolve (through the sign-off/recovery successor
// chain) to a site the directory holder itself believes alive.
void InvariantChecker::check_directory_owners(ChaosContext& ctx,
                                              std::vector<Violation>& out) {
  for (std::size_t i = 0; i < ctx.cluster.size(); ++i) {
    if (!ctx.live(i)) continue;
    Site& site = ctx.cluster.site(i);
    if (!site.joined()) continue;
    for (const auto& [addr, owner] : site.memory().directory_snapshot()) {
      SiteId resolved = site.cluster().resolve_successor(owner);
      const SiteInfo* info = site.cluster().find(resolved);
      if (info != nullptr && !info->alive) {
        out.push_back(Violation{
            "frame-owner-live",
            "site " + std::to_string(site.id()) + " directory entry " +
                std::to_string(addr.value) + " owned by site " +
                std::to_string(owner) + " which resolves to dead site " +
                std::to_string(resolved),
            0, 0});
      }
    }
  }
}

// The headline claim (§2.2): the cluster keeps computing while machines
// sign on and off and crash. At quiescence the workload must have
// committed its result on some live site.
void InvariantChecker::check_termination(ChaosContext& ctx,
                                         std::vector<Violation>& out) {
  if (ctx.terminated) return;
  std::string detail = "program never terminated;";
  for (std::size_t i = 0; i < ctx.cluster.size(); ++i) {
    if (!ctx.live(i)) continue;
    auto status = ctx.cluster.status(i);
    if (!status.is_ok()) continue;
    if (status.value().load.queued_frames > 0 ||
        status.value().load.running > 0) {
      detail += " site index " + std::to_string(i) + " holds " +
                std::to_string(status.value().load.queued_frames) +
                " queued / " + std::to_string(status.value().load.running) +
                " running;";
    }
  }
  out.push_back(Violation{"program-terminates", detail, 0, 0});
}

// Durable no-un-persist: the best recoverable epoch in each state store
// never regresses while the program lives. CheckpointStore::persist
// verifies the written frame before garbage-collecting older generations,
// so a torn or bit-flipped write may fail to advance the store but can
// never take a previously committed epoch away. (Termination legitimately
// drops the artifacts.) Stores are keyed by SimCluster slot, which is
// stable across cold restarts — exactly the property under test.
void InvariantChecker::check_durable_stores(ChaosContext& ctx,
                                            std::vector<Violation>& out) {
  for (std::size_t i = 0; i < ctx.cluster.size(); ++i) {
    std::shared_ptr<StateStore> store = ctx.cluster.state_store(i);
    if (store == nullptr) continue;
    CheckpointStore cs(store);
    std::uint64_t best = 0;
    for (const auto& [pid, epoch] : cs.recoverable()) {
      if (pid == ctx.pid) best = std::max(best, epoch);
    }
    auto it = durable_best_.find(i);
    if (it != durable_best_.end() && !ctx.terminated && best < it->second) {
      out.push_back(Violation{
          "durable-epoch-monotone",
          "state store of slot " + std::to_string(i) +
              " best recoverable epoch went " + std::to_string(it->second) +
              " -> " + std::to_string(best),
          0, 0});
    }
    durable_best_[i] = best;
  }
}

// Durable no-loss + re-homing: at quiescence an unterminated program with
// a committed epoch persisted on some *live* site must still be hosted
// somewhere (the recovery election must have re-homed it), and every live
// site's view of the program's home must resolve to a live site — a
// takeover that landed on a dead "survivor" is a silent loss.
void InvariantChecker::check_program_home(ChaosContext& ctx,
                                          std::vector<Violation>& out) {
  bool hosted = false;
  std::size_t live_replicas = 0;
  for (std::size_t i = 0; i < ctx.cluster.size(); ++i) {
    if (!ctx.live(i)) continue;
    Site& site = ctx.cluster.site(i);
    if (!site.joined()) continue;
    const ProgramInfo* info = site.programs().find(ctx.pid);
    if (info != nullptr && !site.programs().is_terminated(ctx.pid)) {
      SiteId resolved = site.cluster().resolve_successor(info->home_site);
      const SiteInfo* home = site.cluster().find(resolved);
      if (home != nullptr && !home->alive) {
        out.push_back(Violation{
            "program-home-live",
            "site " + std::to_string(site.id()) + " sees program home " +
                std::to_string(info->home_site) + " resolving to dead site " +
                std::to_string(resolved),
            0, 0});
      } else {
        hosted = true;
      }
    }
    if (std::shared_ptr<StateStore> store = ctx.cluster.state_store(i)) {
      CheckpointStore cs(store);
      for (const auto& [pid, epoch] : cs.recoverable()) {
        if (pid == ctx.pid && epoch > 0) ++live_replicas;
      }
    }
  }
  if (!ctx.terminated && live_replicas > 0 && !hosted) {
    out.push_back(Violation{
        "durable-program-lost",
        "program not hosted by any live site despite " +
            std::to_string(live_replicas) + " persisted replica(s)",
        0, 0});
  }
}

// Sharded-ownership invariants (three in one pass over the live sites):
//   * shard-single-holder — at quiescence exactly zero or one live site
//     answers authoritatively for each shard; two holders is the
//     overlapping-epoch-authority split-brain the lease protocol exists
//     to rule out.
//   * shard-map-convergence — every live joined site's lease table names
//     the same (holder, epoch) per shard, and that holder is live: the
//     rendezvous remigration must have settled after churn.
//   * shard-entry-authoritative — no orphans across handoff: a site only
//     retains directory entries for shards it holds, and every physically
//     resident object is registered in its shard holder's directory.
void InvariantChecker::check_shard_leases(ChaosContext& ctx,
                                          std::vector<Violation>& out) {
  struct LiveSite {
    std::size_t index;
    Site* site;
  };
  std::vector<LiveSite> live;
  std::vector<SiteId> live_ids;
  for (std::size_t i = 0; i < ctx.cluster.size(); ++i) {
    if (!ctx.live(i)) continue;
    Site& site = ctx.cluster.site(i);
    if (!site.joined()) continue;
    live.push_back(LiveSite{i, &site});
    live_ids.push_back(site.id());
  }
  if (live.empty()) return;
  auto is_live_id = [&](SiteId id) {
    return std::find(live_ids.begin(), live_ids.end(), id) != live_ids.end();
  };

  for (std::uint32_t s = 0; s < kNumShards; ++s) {
    // Single authoritative holder.
    std::vector<std::pair<SiteId, std::uint64_t>> claimants;
    for (const LiveSite& ls : live) {
      if (ls.site->memory().shard_authoritative(s)) {
        claimants.emplace_back(ls.site->id(),
                               ls.site->memory().shard_leases()[s].epoch);
      }
    }
    if (claimants.size() > 1) {
      std::string detail = "shard " + std::to_string(s) +
                           " has multiple authoritative holders:";
      for (const auto& [id, epoch] : claimants) {
        detail += " site " + std::to_string(id) + " at epoch " +
                  std::to_string(epoch) + ";";
      }
      out.push_back(Violation{"shard-single-holder", detail, 0, 0});
    }

    // Lease-view convergence across live sites.
    ShardLease first = live.front().site->memory().shard_leases()[s];
    for (std::size_t v = 1; v < live.size(); ++v) {
      ShardLease l = live[v].site->memory().shard_leases()[s];
      if (l.holder != first.holder || l.epoch != first.epoch) {
        out.push_back(Violation{
            "shard-map-convergence",
            "shard " + std::to_string(s) + ": site " +
                std::to_string(live.front().site->id()) + " sees holder " +
                std::to_string(first.holder) + "@" +
                std::to_string(first.epoch) + " but site " +
                std::to_string(live[v].site->id()) + " sees holder " +
                std::to_string(l.holder) + "@" + std::to_string(l.epoch),
            0, 0});
        break;  // one disagreement per shard is enough signal
      }
    }
    if (first.holder != kInvalidSite && !is_live_id(first.holder)) {
      out.push_back(Violation{
          "shard-map-convergence",
          "shard " + std::to_string(s) + " lease holder " +
              std::to_string(first.holder) + " is not a live site",
          0, 0});
    }
  }

  // Entry/object placement.
  for (const LiveSite& ls : live) {
    AttractionMemory& mem = ls.site->memory();
    for (const auto& [addr, owner] : mem.directory_snapshot()) {
      std::uint32_t s = shard_of(addr);
      if (mem.shard_leases()[s].holder != ls.site->id()) {
        out.push_back(Violation{
            "shard-entry-authoritative",
            "site " + std::to_string(ls.site->id()) +
                " retains directory entry " + std::to_string(addr.value) +
                " of shard " + std::to_string(s) +
                " it no longer holds (holder " +
                std::to_string(mem.shard_leases()[s].holder) + ")",
            0, 0});
      }
    }
    for (GlobalAddress addr : mem.owned_addresses()) {
      std::uint32_t s = shard_of(addr);
      SiteId holder = mem.shard_leases()[s].holder;
      const LiveSite* holder_site = nullptr;
      for (const LiveSite& h : live) {
        if (h.site->id() == holder) {
          holder_site = &h;
          break;
        }
      }
      if (holder_site == nullptr) continue;  // convergence check reports it
      SiteId registered =
          holder_site->site->memory().directory_owner(addr);
      if (registered == kInvalidSite) {
        out.push_back(Violation{
            "shard-entry-authoritative",
            "object " + std::to_string(addr.value) + " resident on site " +
                std::to_string(ls.site->id()) +
                " is orphaned: shard " + std::to_string(s) + " holder " +
                std::to_string(holder) + " has no directory entry for it",
            0, 0});
      }
    }
  }
}

}  // namespace sdvm::chaos
