// Unit tests for the metrics subsystem: counter/gauge/histogram semantics,
// registry snapshots, snapshot merge (the cluster-wide aggregation), wire
// round-trips and the text/JSON exports.
#include <gtest/gtest.h>

#include <type_traits>

#include "runtime/metrics.hpp"
#include "runtime/site_status.hpp"

namespace sdvm::metrics {
namespace {

TEST(CounterTest, ActsLikeAnInteger) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  ++c;
  c++;
  c += 5;
  EXPECT_EQ(c.value(), 7u);
  // Reads go through value(); there is no implicit integer conversion.
  static_assert(!std::is_convertible_v<Counter, std::uint64_t>);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(HistogramTest, BucketsByLatencyClass) {
  Histogram h;
  h.record(1'000);            // <= 10us  -> bucket 0
  h.record(10'000);           // boundary is inclusive -> bucket 0
  h.record(10'001);           // -> bucket 1
  h.record(500'000'000);      // 500ms -> bucket 5
  h.record(60'000'000'000);   // 60s -> overflow bucket 7
  h.record(-5);               // clamped to 0 -> bucket 0
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.counts()[0], 3u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[5], 1u);
  EXPECT_EQ(h.counts()[7], 1u);
  EXPECT_EQ(h.sum(), 1'000u + 10'000u + 10'001u + 500'000'000u +
                         60'000'000'000u + 0u);
}

TEST(RegistryTest, SnapshotMaterializesEveryKind) {
  MetricsRegistry reg;
  Counter c;
  c += 3;
  Histogram h;
  h.record(42);
  std::int64_t depth = 9;
  reg.register_counter("a.counter", &c);
  reg.register_gauge("b.gauge", [&depth] { return depth; });
  reg.register_histogram("c.hist", &h);
  reg.register_provider([](MetricsSnapshot& s) {
    s.add_counter("d.dynamic", 11);
  });

  MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.counter("a.counter"), 3u);
  EXPECT_EQ(s.gauge_value("b.gauge"), 9);
  const MetricValue* hv = s.find("c.hist");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->kind, Kind::kHistogram);
  EXPECT_EQ(hv->count, 1u);
  EXPECT_EQ(s.counter("d.dynamic"), 11u);
  // Absent names read as zero, not as errors.
  EXPECT_EQ(s.counter("nope"), 0u);
  // Gauges re-sample through the probe at every snapshot.
  depth = 2;
  EXPECT_EQ(reg.snapshot().gauge_value("b.gauge"), 2);
  // Static catalog is sorted and excludes provider-emitted names.
  EXPECT_EQ(reg.names(),
            (std::vector<std::string>{"a.counter", "b.gauge", "c.hist"}));
}

TEST(SnapshotTest, ValuesStaySortedByName) {
  MetricsSnapshot s;
  s.add_counter("zz", 1);
  s.add_counter("aa", 2);
  s.add_gauge("mm", 3);
  ASSERT_EQ(s.values.size(), 3u);
  EXPECT_EQ(s.values[0].name, "aa");
  EXPECT_EQ(s.values[1].name, "mm");
  EXPECT_EQ(s.values[2].name, "zz");
}

TEST(SnapshotTest, MergeAddsElementWise) {
  Histogram h1, h2;
  h1.record(5'000);          // bucket 0
  h2.record(5'000);          // bucket 0
  h2.record(200'000'000);    // bucket 5

  MetricsSnapshot a;
  a.add_counter("shared.counter", 10);
  a.add_counter("only.a", 1);
  a.add_gauge("shared.gauge", 4);
  a.add_histogram("shared.hist", h1);

  MetricsSnapshot b;
  b.add_counter("shared.counter", 32);
  b.add_counter("only.b", 7);
  b.add_gauge("shared.gauge", -1);
  b.add_histogram("shared.hist", h2);

  a.merge(b);
  EXPECT_EQ(a.counter("shared.counter"), 42u);
  EXPECT_EQ(a.counter("only.a"), 1u);
  EXPECT_EQ(a.counter("only.b"), 7u);
  EXPECT_EQ(a.gauge_value("shared.gauge"), 3);
  const MetricValue* hv = a.find("shared.hist");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->count, 3u);
  EXPECT_EQ(hv->buckets[0], 2u);
  EXPECT_EQ(hv->buckets[5], 1u);
  EXPECT_EQ(hv->sum, 200'010'000u);
}

TEST(SnapshotTest, MergeIsAssociativeOnCounters) {
  auto snap = [](std::uint64_t v) {
    MetricsSnapshot s;
    s.add_counter("x", v);
    return s;
  };
  MetricsSnapshot left = snap(1);
  left.merge(snap(2));
  left.merge(snap(3));
  MetricsSnapshot right = snap(2);
  right.merge(snap(3));
  MetricsSnapshot outer = snap(1);
  outer.merge(right);
  EXPECT_EQ(left, outer);
}

TEST(SnapshotTest, WireRoundTrip) {
  Histogram h;
  h.record(123);
  h.record(77'000'000);
  MetricsSnapshot s;
  s.add_counter("sched.frames_enqueued", 1234);
  s.add_gauge("mem.frames", -3);
  s.add_histogram("proc.runtime_ns", h);

  ByteWriter w;
  s.serialize(w);
  auto bytes = w.take();
  ByteReader r(bytes);
  auto back = MetricsSnapshot::deserialize(r);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value(), s);
}

TEST(SnapshotTest, DeserializeRejectsTruncation) {
  MetricsSnapshot s;
  s.add_counter("a", 1);
  s.add_counter("b", 2);
  ByteWriter w;
  s.serialize(w);
  auto bytes = w.take();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::byte> prefix(bytes.begin(),
                                  bytes.begin() + static_cast<long>(cut));
    ByteReader r(prefix);
    auto res = MetricsSnapshot::deserialize(r);
    EXPECT_FALSE(res.is_ok()) << "cut at " << cut;
  }
}

TEST(SnapshotTest, TextAndJsonExports) {
  Histogram h;
  h.record(3'000);
  MetricsSnapshot s;
  s.add_counter("msg.sent", 17);
  s.add_gauge("sched.ready_depth", 2);
  s.add_histogram("proc.runtime_ns", h);

  std::string text = s.to_text("  ");
  EXPECT_NE(text.find("msg.sent"), std::string::npos);
  EXPECT_NE(text.find("17"), std::string::npos);
  EXPECT_NE(text.find("proc.runtime_ns"), std::string::npos);

  std::string json = s.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"msg.sent\""), std::string::npos);
  EXPECT_NE(json.find("\"sched.ready_depth\""), std::string::npos);
}

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(SiteStatusTest, WireRoundTrip) {
  SiteStatus s;
  s.id = 3;
  s.name = "site3";
  s.platform = "x86-linux";
  s.speed = 2.5;
  s.joined = true;
  s.code_site = true;
  s.cluster_size = 4;
  s.load.queued_frames = 7;
  s.load.running = 1;
  s.load.programs = 2;
  s.load.executed_total = 901;
  s.active_programs = {ProgramId(11), ProgramId(12)};
  s.ledger[ProgramId(11)] = AccountEntry{5, 1000, 2000};
  s.metrics.add_counter("proc.executed", 901);

  ByteWriter w;
  s.serialize(w);
  auto bytes = w.take();
  ByteReader r(bytes);
  auto back = SiteStatus::deserialize(r);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  const SiteStatus& b = back.value();
  EXPECT_EQ(b.id, 3u);
  EXPECT_EQ(b.name, "site3");
  EXPECT_EQ(b.platform, "x86-linux");
  EXPECT_DOUBLE_EQ(b.speed, 2.5);
  EXPECT_TRUE(b.joined);
  EXPECT_FALSE(b.signed_off);
  EXPECT_TRUE(b.code_site);
  EXPECT_EQ(b.cluster_size, 4u);
  EXPECT_EQ(b.load.executed_total, 901u);
  EXPECT_EQ(b.active_programs,
            (std::vector<ProgramId>{ProgramId(11), ProgramId(12)}));
  ASSERT_EQ(b.ledger.count(ProgramId(11)), 1u);
  EXPECT_EQ(b.ledger.at(ProgramId(11)).vm_instructions, 1000u);
  EXPECT_EQ(b.metrics, s.metrics);
}

TEST(ClusterStatusTest, AggregateAndBill) {
  ClusterStatus cs;
  cs.queried_from = 1;
  SiteStatus a;
  a.id = 1;
  a.metrics.add_counter("proc.executed", 10);
  a.ledger[ProgramId(5)] = AccountEntry{1, 100, 0};
  SiteStatus b;
  b.id = 2;
  b.metrics.add_counter("proc.executed", 32);
  b.ledger[ProgramId(5)] = AccountEntry{2, 200, 0};
  cs.sites = {a, b};

  EXPECT_EQ(cs.aggregate().counter("proc.executed"), 42u);
  AccountLedger bill = cs.total_ledger();
  ASSERT_EQ(bill.count(ProgramId(5)), 1u);
  EXPECT_EQ(bill.at(ProgramId(5)).microthreads, 3u);
  EXPECT_EQ(bill.at(ProgramId(5)).vm_instructions, 300u);

  EXPECT_NE(cs.to_text().find("2 sites"), std::string::npos);
  std::string json = cs.to_json();
  EXPECT_NE(json.find("\"sites\""), std::string::npos);
  EXPECT_NE(json.find("\"aggregate\""), std::string::npos);
}

}  // namespace
}  // namespace sdvm::metrics
