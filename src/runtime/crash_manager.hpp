// Crash management (paper §2.2/§6, and Haase/Eschmann GI 2004 [4]):
// "automatic backup and recovery mechanism (which uses checkpointing)".
//
// Implementation: bounded-drain coordinated checkpointing with durable,
// k-replicated epochs. The program's home site coordinates rounds:
//   freeze → (sites quiesce execution, in-flight messages drain) →
//   snapshot (frames + memory + queues per site) → replicate the epoch to
//   k-1 deterministically chosen holders → commit once a quorum of the k
//   copies has persisted (resume).
// Every holder with a state store also persists the epoch to disk as a
// CRC-framed, atomically renamed file (checkpoint_store.hpp), so epochs
// survive process death, not just site death.
//
// Failure detection comes from the cluster manager's heartbeat timeouts.
// On a site death the coordinator restores the last committed epoch: every
// site clears the program and reinstalls its shard; orphaned shards are
// adopted by the coordinator, which also becomes the dead sites' routing
// successor. If the *home* site dies, a surviving replica holder takes
// over as coordinator and new home (re-homing), importing the replicated
// sources and output log. Dead holders are replaced (re-replication).
//
// Cold restart: a daemon that comes back (or a freshly formed cluster)
// scans its state dir, advertises recoverable (program, epoch) pairs
// after sign-on (kRecoveryOffer), and the holders elect the highest
// persisted epoch — ties go to the lowest site id — whose owner resumes
// the program. A live home answers offers with kRecoveryActive so stale
// holders stand down.
//
// Guarantees: execution state is never lost while at least one persisted
// replica of a committed epoch exists; console output is delivered
// exactly once (the frontend's log is epoch-tagged and truncated on
// rollback, see io_manager.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "runtime/checkpoint_store.hpp"
#include "runtime/message.hpp"
#include "runtime/metrics.hpp"

namespace sdvm {

class Site;

class CrashManager {
 public:
  explicit CrashManager(Site& site) : site_(site) {}

  /// Periodic driver: starts checkpoint rounds for programs homed here.
  void on_tick();

  /// Cluster manager verdict: `dead` stopped heartbeating.
  void on_site_dead(SiteId dead);

  /// Sign-on/bootstrap completed: scan the state store and, if it holds
  /// recoverable programs, start the recovery-offer election.
  void on_cluster_entered();

  /// Home-site hook, after the entry frame fired: persists + replicates an
  /// "epoch 0" record (info + sources, no shards) so even a home death
  /// before the first checkpoint is survivable.
  void on_program_started(ProgramId pid);

  void handle(const SdMessage& msg);
  void drop_program(ProgramId pid);

  [[nodiscard]] bool frozen() const { return freeze_depth_ > 0; }

  // --- introspection (chaos invariant checkers) -------------------------
  /// Latest committed checkpoint epoch for `pid` on this site (0 = none).
  [[nodiscard]] std::uint64_t committed_epoch(ProgramId pid) const {
    auto it = committed_.find(pid);
    return it == committed_.end() ? 0 : it->second.epoch;
  }
  /// Max committed epoch across all programs this site coordinates.
  [[nodiscard]] std::uint64_t max_committed_epoch() const {
    std::uint64_t m = 0;
    for (const auto& [pid, snap] : committed_) m = std::max(m, snap.epoch);
    return m;
  }
  /// Current replica holders (excluding the home) for a program we
  /// coordinate — tests assert placement and re-replication.
  [[nodiscard]] std::vector<SiteId> replica_holders(ProgramId pid) const {
    auto it = holders_.find(pid);
    return it == holders_.end() ? std::vector<SiteId>{} : it->second;
  }
  /// The durable store (null when neither --state-dir nor an attached
  /// store is present).
  [[nodiscard]] CheckpointStore* checkpoint_store();

  /// Registers this manager's instruments ("crash." prefix).
  void register_metrics(metrics::MetricsRegistry& registry) {
    registry.register_counter("crash.checkpoints_committed",
                              &checkpoints_committed_);
    registry.register_counter("crash.recoveries", &recoveries_);
    registry.register_counter("crash.replicas_persisted",
                              &replicas_persisted_);
    registry.register_gauge("crash.committed_epoch", [this] {
      return static_cast<std::int64_t>(max_committed_epoch());
    });
    registry.register_gauge("crash.recovery_ms",
                            [this] { return last_recovery_ms_; });
    registry.register_gauge("crash.disk_corrupt_skipped", [this] {
      return static_cast<std::int64_t>(
          ckpt_ ? ckpt_->corrupt_skipped() : 0);
    });
  }

 private:
  // Instruments (read "crash.*" through Site::introspect()).
  metrics::Counter checkpoints_committed_;
  metrics::Counter recoveries_;
  metrics::Counter replicas_persisted_;

  // -- coordinator side --
  void begin_checkpoint(ProgramId pid);
  void maybe_commit(ProgramId pid);
  void maybe_finish_commit(ProgramId pid);
  void begin_recovery(ProgramId pid, SiteId dead);
  /// Takes over as home from a replica (in-memory or loaded from disk).
  void take_over(ProgramId pid, DurableEpoch snap);

  /// Deterministic replica placement: the k-1 live sites after
  /// `pid % n` on the sorted ring, excluding us.
  [[nodiscard]] std::vector<SiteId> pick_holders(ProgramId pid) const;
  /// Bundles everything a holder needs (info, shards, sources, io log).
  [[nodiscard]] DurableEpoch build_durable(
      ProgramId pid, std::uint64_t epoch,
      std::map<SiteId, std::vector<std::byte>> shards);
  /// Persists to the local store if one is attached; counts successes.
  void persist_local(const DurableEpoch& snap);
  /// Sends kCheckpointReplica with `snap` to every current holder.
  void replicate(ProgramId pid, const DurableEpoch& snap);

  // -- cold-restart election --
  void announce_offers();
  void close_election(ProgramId pid);
  void handle_offer(const SdMessage& msg);
  void handle_offer_answer(const SdMessage& msg);

  // -- participant side --
  void handle_freeze(const SdMessage& msg);
  /// Polls quiescence; once reached, acks the freeze (kCheckpointFrozen).
  void try_ack_frozen();
  void handle_take_shard(const SdMessage& msg);
  void handle_commit(const SdMessage& msg);
  void handle_replica(const SdMessage& msg);
  void handle_restore(const SdMessage& msg);

  /// Serializes this site's full state for `pid`: scheduler queues +
  /// attraction memory (frames, objects, directory).
  [[nodiscard]] std::vector<std::byte> make_shard(ProgramId pid) const;
  void install_shard(ProgramId pid, std::span<const std::byte> shard);
  void clear_program_state(ProgramId pid);

  Site& site_;

  // Coordinator state. Three phases: collect frozen-acks from every site,
  // wait out the drain and collect shards, then wait for a persist quorum.
  struct Round {
    std::uint64_t epoch;
    std::vector<SiteId> expected;
    std::set<SiteId> frozen;
    bool collecting = false;
    std::map<SiteId, std::vector<std::byte>> received;
    Nanos started;
    // Quorum phase: the assembled snapshot and who persisted it so far.
    bool awaiting_quorum = false;
    DurableEpoch snap;
    std::set<SiteId> persist_acks;
  };
  std::map<ProgramId, Round> active_rounds_;
  std::map<ProgramId, DurableEpoch> committed_;  // latest committed epoch
  std::map<ProgramId, Nanos> last_checkpoint_;
  std::map<ProgramId, std::uint64_t> next_epoch_;
  std::map<ProgramId, std::vector<SiteId>> holders_;

  // Recovery-fanout timing (crash.recovery_ms).
  std::map<ProgramId, Nanos> recovery_started_;
  std::map<ProgramId, std::set<SiteId>> recovery_waiting_;
  std::int64_t last_recovery_ms_ = 0;

  // Cold-restart election state, per recoverable program.
  struct RecoveryElection {
    std::uint64_t my_epoch = 0;
    bool announced = false;
    std::map<SiteId, std::uint64_t> offers;  // competing holders
  };
  std::map<ProgramId, RecoveryElection> elections_;
  bool announce_scheduled_ = false;

  // Participant state.
  int freeze_depth_ = 0;
  struct PendingShard {
    ProgramId pid;
    std::uint64_t epoch;
    SiteId coordinator;
    bool acked = false;  // quiescence reported
    Nanos frozen_at = 0;  // for expiry when the coordinator dies mid-round
  };
  std::vector<PendingShard> pending_shards_;
  /// Drops pending shards matching `pred`; unfreezes when none remain.
  template <typename Pred>
  void expire_pending_shards(Pred pred);

  // Replicas we hold for programs homed elsewhere. `replica_peers_` is the
  // full holder set (home included) that rode along with the replica: on a
  // home death, the lowest live site in that set takes over — every holder
  // evaluates the same rule, so exactly one does.
  std::map<ProgramId, DurableEpoch> replicas_;
  std::map<ProgramId, SiteId> replica_home_;
  std::map<ProgramId, std::vector<SiteId>> replica_peers_;

  std::unique_ptr<CheckpointStore> ckpt_;
  bool ckpt_checked_ = false;
};

}  // namespace sdvm
