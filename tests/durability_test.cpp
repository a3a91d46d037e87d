// Durable checkpoint storage: CRC framing, atomic epoch files, manifest
// fallback, corruption detection, and the seeded disk-fault decorator —
// plus cold-restart recovery end to end in sim mode.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "test_util.hpp"

#include "apps/primes.hpp"
#include "runtime/checkpoint_store.hpp"
#include "sim/sim_cluster.hpp"

namespace sdvm {
namespace {

using sim::SimCluster;

DurableEpoch sample_epoch(std::uint64_t epoch) {
  DurableEpoch d;
  d.pid = ProgramId(1, 7);
  d.epoch = epoch;
  d.info.id = d.pid;
  d.info.name = "job";
  d.info.home_site = 1;
  d.info.entry_thread = 0;
  d.info.thread_names = {"main", "worker"};
  d.shards[1] = {std::byte{0x01}, std::byte{0x02}};
  d.shards[3] = {std::byte{0xAA}};
  d.sources = {{0, "void main() {}"}, {1, "void worker() {}"}};
  d.io_log.push_back(IoRecord{epoch, 0, "line-one"});
  return d;
}

TEST(CheckpointStoreTest, PersistLoadRoundTrip) {
  CheckpointStore store(std::make_shared<MemStateStore>());
  DurableEpoch d = sample_epoch(4);
  ASSERT_TRUE(store.persist(d).is_ok());

  auto loaded = store.load_latest(d.pid);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().epoch, 4u);
  EXPECT_EQ(loaded.value().info.name, "job");
  EXPECT_EQ(loaded.value().shards, d.shards);
  EXPECT_EQ(loaded.value().sources, d.sources);
  ASSERT_EQ(loaded.value().io_log.size(), 1u);
  EXPECT_EQ(loaded.value().io_log[0].text, "line-one");
  EXPECT_EQ(store.corrupt_skipped(), 0u);
}

TEST(CheckpointStoreTest, RecoverableListsBestEpochPerProgram) {
  CheckpointStore store(std::make_shared<MemStateStore>());
  ASSERT_TRUE(store.persist(sample_epoch(2)).is_ok());
  ASSERT_TRUE(store.persist(sample_epoch(3)).is_ok());
  DurableEpoch other = sample_epoch(9);
  other.pid = ProgramId(2, 1);
  other.info.id = other.pid;
  ASSERT_TRUE(store.persist(other).is_ok());

  auto recoverable = store.recoverable();
  ASSERT_EQ(recoverable.size(), 2u);
  std::map<ProgramId, std::uint64_t> byPid(recoverable.begin(),
                                           recoverable.end());
  EXPECT_EQ(byPid[ProgramId(1, 7)], 3u);
  EXPECT_EQ(byPid[ProgramId(2, 1)], 9u);
}

TEST(CheckpointStoreTest, GcKeepsTwoGenerations) {
  auto mem = std::make_shared<MemStateStore>();
  CheckpointStore store(mem);
  for (std::uint64_t e = 1; e <= 5; ++e) {
    ASSERT_TRUE(store.persist(sample_epoch(e)).is_ok());
  }
  // Epochs 4 and 5 survive (plus the manifest); 1..3 are collected.
  auto names = mem->list();
  EXPECT_EQ(names.size(), 3u);
  ProgramId pid(1, 7);
  for (std::uint64_t e : {4u, 5u}) {
    auto got = mem->get(CheckpointStore::epoch_file_name(pid, e));
    EXPECT_TRUE(got.is_ok()) << "epoch " << e << " was collected";
  }
}

TEST(CheckpointStoreTest, TornWriteFallsBackToPreviousEpoch) {
  auto mem = std::make_shared<MemStateStore>();
  CheckpointStore store(mem);
  ASSERT_TRUE(store.persist(sample_epoch(1)).is_ok());
  ASSERT_TRUE(store.persist(sample_epoch(2)).is_ok());

  // Tear epoch 2's file in half, as a crash mid-write would.
  ProgramId pid(1, 7);
  std::string name = CheckpointStore::epoch_file_name(pid, 2);
  auto whole = mem->get(name);
  ASSERT_TRUE(whole.is_ok());
  std::vector<std::byte> torn(whole.value().begin(),
                              whole.value().begin() +
                                  static_cast<std::ptrdiff_t>(
                                      whole.value().size() / 2));
  ASSERT_TRUE(mem->put(name, torn).is_ok());

  auto loaded = store.load_latest(pid);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().epoch, 1u);
  EXPECT_GE(store.corrupt_skipped(), 1u);
}

TEST(CheckpointStoreTest, BitFlipIsDetectedAndSkipped) {
  auto mem = std::make_shared<MemStateStore>();
  CheckpointStore store(mem);
  ASSERT_TRUE(store.persist(sample_epoch(1)).is_ok());
  ASSERT_TRUE(store.persist(sample_epoch(2)).is_ok());

  ProgramId pid(1, 7);
  std::string name = CheckpointStore::epoch_file_name(pid, 2);
  auto whole = mem->get(name);
  ASSERT_TRUE(whole.is_ok());
  auto flipped = whole.value();
  flipped[flipped.size() - 3] ^= std::byte{0x10};  // inside the payload
  ASSERT_TRUE(mem->put(name, flipped).is_ok());

  auto loaded = store.load_latest(pid);
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value().epoch, 1u) << "CRC failed to catch the bit flip";
  EXPECT_GE(store.corrupt_skipped(), 1u);
}

TEST(CheckpointStoreTest, MissingManifestFallsBackToScan) {
  auto mem = std::make_shared<MemStateStore>();
  CheckpointStore store(mem);
  ASSERT_TRUE(store.persist(sample_epoch(3)).is_ok());
  ProgramId pid(1, 7);
  mem->remove(CheckpointStore::manifest_name(pid));

  auto loaded = store.load_latest(pid);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().epoch, 3u);

  auto recoverable = store.recoverable();
  ASSERT_EQ(recoverable.size(), 1u);
  EXPECT_EQ(recoverable[0].second, 3u);
}

TEST(CheckpointStoreTest, DropRemovesEveryArtifact) {
  auto mem = std::make_shared<MemStateStore>();
  CheckpointStore store(mem);
  ASSERT_TRUE(store.persist(sample_epoch(1)).is_ok());
  ASSERT_TRUE(store.persist(sample_epoch(2)).is_ok());
  store.drop(ProgramId(1, 7));
  EXPECT_TRUE(mem->list().empty());
  EXPECT_TRUE(store.recoverable().empty());
}

TEST(CheckpointStoreTest, DirStateStoreSurvivesReopen) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("sdvm-durability-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    CheckpointStore store(std::make_shared<DirStateStore>(dir.string()));
    ASSERT_TRUE(store.persist(sample_epoch(5)).is_ok());
  }
  // A different handle on the same directory — a restarted daemon.
  CheckpointStore reopened(std::make_shared<DirStateStore>(dir.string()));
  auto loaded = reopened.load_latest(ProgramId(1, 7));
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().epoch, 5u);
  EXPECT_EQ(loaded.value().shards, sample_epoch(5).shards);
  std::filesystem::remove_all(dir);
}

TEST(FaultyStateStoreTest, SameSeedSameFaults) {
  FaultyStateStore::Options opts;
  opts.seed = 42;
  opts.torn_write = 0.3;
  opts.bit_flip = 0.2;
  opts.drop_write = 0.1;

  auto run = [&] {
    auto mem = std::make_shared<MemStateStore>();
    FaultyStateStore faulty(mem, opts);
    std::vector<std::byte> data(64, std::byte{0x5C});
    for (int i = 0; i < 50; ++i) {
      (void)faulty.put("k" + std::to_string(i), data);
    }
    std::map<std::string, std::vector<std::byte>> out;
    for (const auto& name : mem->list()) {
      out[name] = mem->get(name).value();
    }
    return std::pair(faulty.faults_injected(), out);
  };

  auto [faults_a, files_a] = run();
  auto [faults_b, files_b] = run();
  EXPECT_GT(faults_a, 0u) << "fault rates too low to observe anything";
  EXPECT_EQ(faults_a, faults_b);
  EXPECT_EQ(files_a, files_b) << "fault injection is not deterministic";
}

TEST(FaultyStateStoreTest, CheckpointStoreSurvivesFaultyWrites) {
  // Persist many epochs through a lossy store: whatever load_latest
  // returns must be a *valid* epoch (possibly an older one), never
  // garbage accepted from a corrupt file.
  FaultyStateStore::Options opts;
  opts.seed = 7;
  opts.torn_write = 0.25;
  opts.bit_flip = 0.15;
  opts.drop_write = 0.1;
  auto mem = std::make_shared<MemStateStore>();
  CheckpointStore store(std::make_shared<FaultyStateStore>(mem, opts));

  std::uint64_t last_ok = 0;
  for (std::uint64_t e = 1; e <= 20; ++e) {
    if (store.persist(sample_epoch(e)).is_ok()) last_ok = e;
  }
  ASSERT_GT(last_ok, 0u);
  auto loaded = store.load_latest(ProgramId(1, 7));
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_GE(loaded.value().epoch, 1u);
  EXPECT_LE(loaded.value().epoch, 20u);
  EXPECT_EQ(loaded.value().info.name, "job");
  EXPECT_EQ(loaded.value().shards, sample_epoch(loaded.value().epoch).shards);
}

// ---------------------------------------------------------------------------
// Cold-restart recovery, end to end in sim mode
// ---------------------------------------------------------------------------

SiteConfig durable_config() {
  SiteConfig cfg;
  cfg.checkpoints_enabled = true;
  cfg.checkpoint_interval = kNanosPerSecond / 2;
  cfg.heartbeat_interval = 100'000'000;  // 100 ms
  cfg.failure_timeout = 400'000'000;     // 400 ms
  return cfg;
}

apps::PrimesParams long_job() {
  apps::PrimesParams p;
  p.p = 60;
  p.width = 8;
  p.work_mult = 30'000'000;
  return p;
}

TEST(ColdRestartTest, QuorumCommitPersistsReplicas) {
  SimCluster::Options opts;
  opts.durable_state = true;
  SimCluster cluster(opts);
  cluster.add_sites(4, 1.0, durable_config());
  auto pid = cluster.start_program(apps::make_primes_program(long_job()));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 3000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_GT(testing_util::counter(cluster.site(0),
                                  "crash.checkpoints_committed"), 0u);
  // Home + one holder (replication_factor 2) each persisted every epoch.
  EXPECT_GT(testing_util::counter(cluster.site(0),
                                  "crash.replicas_persisted"), 0u);
  std::uint64_t holder_persists = 0;
  for (std::size_t i = 1; i < cluster.size(); ++i) {
    holder_persists +=
        testing_util::counter(cluster.site(i), "crash.replicas_persisted");
  }
  EXPECT_GT(holder_persists, 0u) << "no replica holder ever persisted";
}

TEST(ColdRestartTest, HomeAndHolderDoubleKillRecoversFromDisk) {
  // Kill the home *and* every replica holder: no live site holds the
  // program any more. The restarted daemons find the committed epochs in
  // their state stores, win the recovery election, and resume.
  SimCluster::Options opts;
  opts.durable_state = true;
  SimCluster cluster(opts);
  cluster.add_sites(4, 1.0, durable_config());
  auto pid = cluster.start_program(apps::make_primes_program(long_job()));
  ASSERT_TRUE(pid.is_ok());

  cluster.loop().run_for(2 * kNanosPerSecond);
  ASSERT_GT(testing_util::counter(cluster.site(0),
                                  "crash.checkpoints_committed"), 0u);
  std::vector<SiteId> holders =
      cluster.site(0).crash().replica_holders(pid.value());
  ASSERT_FALSE(holders.empty());

  // SIGKILL the home (slot 0) and every holder, then restart both slots
  // with their original state stores.
  std::vector<std::size_t> killed = {0};
  for (SiteId holder : holders) {
    for (std::size_t i = 1; i < cluster.size(); ++i) {
      if (cluster.site(i).id() == holder) killed.push_back(i);
    }
  }
  for (std::size_t i : killed) cluster.kill(i);
  for (std::size_t i : killed) cluster.restart(i);

  auto code = cluster.run_program(pid.value(), 9000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_EQ(code.value(), 0);

  bool verdict_seen = false;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto out = cluster.outputs(i, pid.value());
    if (!out.empty() && std::stoll(out.back()) >= 60) verdict_seen = true;
  }
  EXPECT_TRUE(verdict_seen) << "no site collected the final verdict";
}

TEST(ColdRestartTest, FullClusterKillAndRestartResumes) {
  // The kill-everything drill: every daemon dies, every daemon restarts
  // with its state store. The reformed cluster elects the highest
  // committed epoch and finishes with the undisturbed exit code.
  SimCluster::Options opts;
  opts.durable_state = true;
  SimCluster cluster(opts);
  cluster.add_sites(4, 1.0, durable_config());
  auto pid = cluster.start_program(apps::make_primes_program(long_job()));
  ASSERT_TRUE(pid.is_ok());

  cluster.loop().run_for(2 * kNanosPerSecond);
  std::uint64_t epoch_before =
      cluster.site(0).crash().committed_epoch(pid.value());
  ASSERT_GT(epoch_before, 0u);

  for (std::size_t i = 0; i < cluster.size(); ++i) cluster.kill(i);
  for (std::size_t i = 0; i < cluster.size(); ++i) cluster.restart(i);

  auto code = cluster.run_program(pid.value(), 9000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  EXPECT_EQ(code.value(), 0) << "exit code differs from undisturbed run";

  // The resumed run started from the persisted epoch, not from scratch,
  // and the verdict landed at the new home.
  std::uint64_t best = 0;
  bool verdict_seen = false;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    best = std::max(best, cluster.site(i).crash().committed_epoch(pid.value()));
    auto out = cluster.outputs(i, pid.value());
    if (!out.empty() && std::stoll(out.back()) >= 60) verdict_seen = true;
  }
  EXPECT_TRUE(verdict_seen) << "no site collected the final verdict";
  EXPECT_GE(testing_util::counter(cluster.site(0), "crash.recoveries") +
                testing_util::counter(cluster.site(1), "crash.recoveries") +
                testing_util::counter(cluster.site(2), "crash.recoveries") +
                testing_util::counter(cluster.site(3), "crash.recoveries"),
            1u);
}

TEST(ColdRestartTest, TerminatedProgramIsNotResurrected) {
  // A program that finished before the crash must stay finished: the
  // restarted site's stale store is dropped, not replayed.
  SimCluster::Options opts;
  opts.durable_state = true;
  SimCluster cluster(opts);
  cluster.add_sites(3, 1.0, durable_config());
  apps::PrimesParams quick = long_job();
  quick.p = 20;
  quick.work_mult = 1'000'000;
  auto pid = cluster.start_program(apps::make_primes_program(quick));
  ASSERT_TRUE(pid.is_ok());
  auto code = cluster.run_program(pid.value(), 3000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();

  cluster.kill(2);
  cluster.restart(2);
  cluster.loop().run_for(5 * kNanosPerSecond);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_TRUE(cluster.site(i).programs().active_programs().empty())
        << "site " << i << " resurrected a terminated program";
  }
}

ProgramSpec make_ticker_program(std::int64_t steps, std::int64_t cost) {
  // Prints 0..steps-1, one line per microframe, with enough virtual work
  // between lines that checkpoints commit mid-stream.
  ProgramSpec spec;
  spec.name = "ticker";
  spec.entry = "entry";
  spec.args = {steps, cost};
  spec.threads = {
      {"entry", R"(
        var r = spawn("step", 1);
        send(r, 0, 0);
      )",
       nullptr},
      {"step", R"(
        var i = param(0);
        out(i);
        charge(arg(1));
        if (i + 1 < arg(0)) {
          var r = spawn("step", 1);
          send(r, 0, i + 1);
        } else {
          exit(0);
        }
      )",
       nullptr},
  };
  return spec;
}

TEST(ColdRestartTest, OutputIsDeliveredExactlyOnce) {
  // Worker crash forces a rollback: lines printed after the last commit
  // are truncated from the frontend log and regenerated by the replay, so
  // the collected output contains no duplicates and no holes.
  SimCluster::Options opts;
  opts.durable_state = true;
  SimCluster cluster(opts);
  cluster.add_sites(4, 1.0, durable_config());
  auto pid = cluster.start_program(
      make_ticker_program(/*steps=*/40, /*cost=*/100'000'000));
  ASSERT_TRUE(pid.is_ok());

  cluster.loop().run_for(2 * kNanosPerSecond);
  ASSERT_GT(testing_util::counter(cluster.site(0),
                                  "crash.checkpoints_committed"), 0u);
  cluster.kill(2);
  cluster.loop().run_for(2 * kNanosPerSecond);
  cluster.kill(3);

  auto code = cluster.run_program(pid.value(), 9000 * kNanosPerSecond);
  ASSERT_TRUE(code.is_ok()) << code.status().to_string();
  ASSERT_GT(testing_util::counter(cluster.site(0), "crash.recoveries"), 0u)
      << "no rollback happened — the test exercised nothing";

  auto out = cluster.outputs(0, pid.value());
  ASSERT_EQ(out.size(), 40u) << "lines lost or duplicated";
  for (std::int64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], std::to_string(i))
        << "output out of order at " << i;
  }
}

}  // namespace
}  // namespace sdvm
