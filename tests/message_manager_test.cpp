// Message-manager outbound path: one standalone Site (id 1) with a
// recording Transport, three known peers, and no simulator. Pins what
// leaves the site for a burst — per-destination batches in first-appearance
// order, loopback delivered inline first, per-message failure of unknown
// destinations — and for a broadcast built on it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/site.hpp"

namespace sdvm {
namespace {

/// Everything the site did, in order: "batch <addr> <n>", "flush <addr>",
/// "send <addr>", plus whatever the test itself appends.
using EventLog = std::vector<std::string>;

struct RecordingTransport final : net::Transport {
  EventLog* log;
  std::vector<net::Frame>* frames;
  RecordingTransport(EventLog* l, std::vector<net::Frame>* f)
      : log(l), frames(f) {}
  std::string local_address() const override { return "peer:1"; }
  Status send(const std::string& to, std::vector<std::byte> bytes) override {
    log->push_back("send " + to);
    frames->push_back(std::move(bytes));
    return Status::ok();
  }
  Status send_batch(const std::string& to,
                    std::vector<net::Frame> batch) override {
    log->push_back("batch " + to + " " + std::to_string(batch.size()));
    for (auto& f : batch) frames->push_back(std::move(f));
    return Status::ok();
  }
  void flush(const std::string& to) override { log->push_back("flush " + to); }
  void close() override {}
};

struct IdleDriver final : Driver {
  void request_wakeup(Nanos) override {}
};

class MessageManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    site_.attach_transport(
        std::make_unique<RecordingTransport>(&log_, &frames_));
    site_.bootstrap();
    for (SiteId id : {kA, kB, kC}) {
      SiteInfo peer;
      peer.id = id;
      peer.address = address(id);
      peer.version = 1;
      site_.cluster().merge(std::move(peer));
    }
    // Bootstrap and admissions announce leases; start from a clean log.
    log_.clear();
    frames_.clear();
  }

  static std::string address(SiteId id) {
    return "peer:" + std::to_string(id);
  }

  static SdMessage to(SiteId dst) {
    SdMessage m;
    m.dst = dst;
    m.src_mgr = m.dst_mgr = ManagerId::kCluster;
    m.type = MsgType::kSiteGossip;
    return m;
  }

  /// The frames that left, decoded (encryption is off by default).
  std::vector<SdMessage> decoded() {
    std::vector<SdMessage> out;
    for (const auto& f : frames_) {
      auto m = site_.security().unprotect(f);
      EXPECT_TRUE(m.is_ok());
      if (m.is_ok()) out.push_back(std::move(m).value());
    }
    return out;
  }

  std::uint64_t sent() {
    return site_.introspect().metrics.counter("msg.sent");
  }

  static constexpr SiteId kA = 2;
  static constexpr SiteId kB = 3;
  static constexpr SiteId kC = 4;
  static constexpr SiteId kUnknown = 99;

  VirtualClock clock_;
  IdleDriver driver_;
  Site site_{SiteConfig{}, clock_, driver_};
  EventLog log_;
  std::vector<net::Frame> frames_;
};

TEST_F(MessageManagerTest, BurstBatchesPerDestinationInFirstAppearanceOrder) {
  const std::uint64_t sent_before = sent();
  std::vector<SdMessage> burst;
  for (SiteId id : {kA, kB, kA, kC, kB}) burst.push_back(to(id));
  ASSERT_TRUE(site_.messages().send_burst(std::move(burst)).is_ok());

  EXPECT_EQ(log_, (EventLog{"batch peer:2 2", "flush peer:2",
                            "batch peer:3 2", "flush peer:3",
                            "batch peer:4 1", "flush peer:4"}));
  // Within a batch the burst order holds: seqs rise per destination.
  const auto msgs = decoded();
  ASSERT_EQ(msgs.size(), 5u);
  const std::vector<SiteId> dsts = {kA, kA, kB, kB, kC};
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(msgs[i].dst, dsts[i]) << "frame " << i;
    EXPECT_EQ(msgs[i].src, 1u);
  }
  EXPECT_LT(msgs[0].seq, msgs[1].seq);
  EXPECT_LT(msgs[2].seq, msgs[3].seq);
  EXPECT_EQ(sent() - sent_before, 5u);
}

TEST_F(MessageManagerTest, LoopbackDispatchesBeforeAnyBatch) {
  // A pending request whose reply arrives as the loopback member of the
  // burst: its handler runs when that message is delivered.
  ASSERT_TRUE(site_.messages()
                  .request(to(kA),
                           [&](Result<SdMessage> r) {
                             log_.push_back(r.is_ok() ? "reply" : "failed");
                           })
                  .is_ok());
  ASSERT_EQ(frames_.size(), 1u);
  const std::uint64_t req_seq = decoded().front().seq;
  log_.clear();
  frames_.clear();

  SdMessage loop = to(1);
  loop.reply_to = req_seq;
  std::vector<SdMessage> burst;
  burst.push_back(to(kB));
  burst.push_back(std::move(loop));
  burst.push_back(to(kC));
  ASSERT_TRUE(site_.messages().send_burst(std::move(burst)).is_ok());

  EXPECT_EQ(log_, (EventLog{"reply", "batch peer:3 1", "flush peer:3",
                            "batch peer:4 1", "flush peer:4"}));
}

TEST_F(MessageManagerTest, UnknownDestinationFailsOnlyItsOwnRequest) {
  std::vector<std::string> outcomes;
  auto record = [&](const char* name) {
    return [&outcomes, name](Result<SdMessage> r) {
      outcomes.push_back(std::string(name) +
                         (r.is_ok() ? " ok" : " failed"));
    };
  };
  // Requests issued while a segment defers its sends leave together in
  // one burst when the deferral is released.
  std::vector<SdMessage> deferred;
  site_.messages().set_defer(&deferred);
  ASSERT_TRUE(site_.messages().request(to(kA), record("a")).is_ok());
  ASSERT_TRUE(site_.messages().request(to(kUnknown), record("lost")).is_ok());
  ASSERT_TRUE(site_.messages().request(to(kB), record("b")).is_ok());
  site_.messages().set_defer(nullptr);
  ASSERT_EQ(deferred.size(), 3u);

  Status st = site_.messages().send_burst(std::move(deferred));
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(outcomes, (std::vector<std::string>{"lost failed"}));
  EXPECT_EQ(log_, (EventLog{"batch peer:2 1", "flush peer:2",
                            "batch peer:3 1", "flush peer:3"}));
  // The two requests that left are still pending; failing their targets
  // resolves them.
  site_.messages().fail_pending_to(kA);
  site_.messages().fail_pending_to(kB);
  EXPECT_EQ(outcomes, (std::vector<std::string>{"lost failed", "a failed",
                                                "b failed"}));
}

TEST_F(MessageManagerTest, BroadcastSkipsSelfAndNumbersInListOrder) {
  SdMessage proto = to(kInvalidSite);
  proto.payload = {std::byte{7}};
  const std::uint64_t sent_before = sent();
  EXPECT_EQ(site_.messages().broadcast(proto, {kC, 1, kA, kB}), 3u);

  EXPECT_EQ(log_, (EventLog{"batch peer:4 1", "flush peer:4",
                            "batch peer:2 1", "flush peer:2",
                            "batch peer:3 1", "flush peer:3"}));
  const auto msgs = decoded();
  ASSERT_EQ(msgs.size(), 3u);
  const std::vector<SiteId> dsts = {kC, kA, kB};
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(msgs[i].dst, dsts[i]) << "frame " << i;
    EXPECT_EQ(msgs[i].payload, proto.payload);
    if (i > 0) {
      EXPECT_EQ(msgs[i].seq, msgs[i - 1].seq + 1);
    }
  }
  EXPECT_EQ(sent() - sent_before, 3u);
}

}  // namespace
}  // namespace sdvm
