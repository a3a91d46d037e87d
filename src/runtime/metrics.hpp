// sdvm::metrics — the per-site metrics subsystem behind the unified
// introspection API (paper §4: the site manager "collects performance data
// about the local site"). Every manager owns its instruments inline (plain
// word-sized slots, zero heap on the increment path; all mutation happens
// under the site lock) and registers them once with the site's
// MetricsRegistry. A snapshot() materializes every registered instrument
// into a serializable MetricsSnapshot that can travel the wire
// (kMetricsQuery/kMetricsReply), merge cluster-wide, and export as text or
// JSON for sdvm-top and the bench harness.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace sdvm::metrics {

/// Monotonically increasing event count.
class Counter {
 public:
  Counter& operator++() {
    ++v_;
    return *this;
  }
  std::uint64_t operator++(int) { return v_++; }
  Counter& operator+=(std::uint64_t d) {
    v_ += d;
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return v_; }
  void reset() { v_ = 0; }

 private:
  std::uint64_t v_ = 0;
};

/// Fixed-bucket latency histogram over nanosecond durations. One shared
/// log-scale bucket layout (10us … 10s, plus overflow) keeps merging
/// trivial: cluster-wide aggregation is element-wise addition.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 8;
  /// Upper bounds (inclusive) of buckets 0..6 in nanos; bucket 7 = +inf.
  static constexpr std::array<std::int64_t, kBuckets - 1> kBounds = {
      10'000,         100'000,        1'000'000,     10'000'000,
      100'000'000,    1'000'000'000,  10'000'000'000};

  void record(Nanos v) {
    if (v < 0) v = 0;
    std::size_t i = 0;
    while (i < kBounds.size() && v > kBounds[i]) ++i;
    ++counts_[i];
    sum_ += static_cast<std::uint64_t>(v);
    ++count_;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& counts() const {
    return counts_;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t sum_ = 0;
  std::uint64_t count_ = 0;
};

enum class Kind : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

[[nodiscard]] const char* to_string(Kind k);

/// One materialized instrument inside a snapshot.
struct MetricValue {
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t count = 0;  // counter value, or histogram sample count
  std::int64_t gauge = 0;   // gauge reading
  std::uint64_t sum = 0;    // histogram sum of recorded nanos
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};

  void serialize(ByteWriter& w) const;
  static MetricValue deserialize(ByteReader& r);  // throws DecodeError

  friend bool operator==(const MetricValue&, const MetricValue&) = default;
};

/// A point-in-time reading of every registered instrument; the unit that
/// travels in kMetricsReply and aggregates cluster-wide.
struct MetricsSnapshot {
  std::vector<MetricValue> values;  // sorted by name

  [[nodiscard]] const MetricValue* find(const std::string& name) const;
  /// Counter/gauge value by name, 0 when absent (gauges: the reading).
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  [[nodiscard]] std::int64_t gauge_value(const std::string& name) const;

  void add_counter(const std::string& name, std::uint64_t value);
  void add_gauge(const std::string& name, std::int64_t value);
  void add_histogram(const std::string& name, const Histogram& h);

  /// Element-wise aggregation: counters and histogram buckets add; gauges
  /// add too (cluster-wide queue depth is the sum of per-site depths).
  /// Metrics present only on one side are kept as-is.
  void merge(const MetricsSnapshot& other);

  void serialize(ByteWriter& w) const;
  static Result<MetricsSnapshot> deserialize(ByteReader& r);

  [[nodiscard]] std::string to_text(const std::string& indent = "") const;
  [[nodiscard]] std::string to_json() const;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;

 private:
  /// Keeps `values` sorted so merge() is a linear walk and wire bytes are
  /// deterministic.
  void insert_sorted(MetricValue v);
};

/// Per-site catalog of instruments. Managers register pointers to their
/// inline slots once at site construction; snapshot() walks the catalog
/// under the site lock. Gauges are sampled through probes (queue depths
/// etc. are derived values); providers emit dynamic families (per-message-
/// type counts) whose member set is only known at snapshot time.
class MetricsRegistry {
 public:
  using GaugeProbe = std::function<std::int64_t()>;
  using Provider = std::function<void(MetricsSnapshot&)>;

  void register_counter(std::string name, const Counter* counter);
  void register_gauge(std::string name, GaugeProbe probe);
  void register_histogram(std::string name, const Histogram* histogram);
  void register_provider(Provider provider);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Registered static names (counters, gauges, histograms), sorted — the
  /// stable metric catalog identical across deployment modes.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  struct Entry {
    std::string name;
    Kind kind;
    const Counter* counter = nullptr;
    GaugeProbe probe;
    const Histogram* histogram = nullptr;
  };
  std::vector<Entry> entries_;
  std::vector<Provider> providers_;
};

/// Minimal JSON string escaping for metric names and site names.
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace sdvm::metrics
