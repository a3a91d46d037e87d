#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "apps/primes.hpp"
#include "runtime/message.hpp"
#include "runtime/security_manager.hpp"

namespace perfbench {

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  if (s.size() == 1) return s[0];
  // Python statistics.quantiles(method="exclusive"): position q*(n+1),
  // 1-based, clamped to the sample range.
  const double pos = q * static_cast<double>(s.size() + 1);
  if (pos <= 1) return s.front();
  if (pos >= static_cast<double>(s.size())) return s.back();
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const double frac = pos - static_cast<double>(lo);
  return s[lo - 1] + frac * (s[lo] - s[lo - 1]);
}

double Samples::sum() const {
  double t = 0;
  for (double v : v_) t += v;
  return t;
}

Samples Samples::group_means(std::size_t group) const {
  Samples out;
  if (group == 0) return out;
  for (std::size_t i = 0; i + group <= v_.size(); i += group) {
    double t = 0;
    for (std::size_t j = i; j < i + group; ++j) t += v_[j];
    out.add(t / static_cast<double>(group));
  }
  return out;
}

double tail_percentile(std::size_t n) {
  double best = 0;
  for (double q : {0.5, 0.75, 0.9, 0.95, 0.99}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) best = q;
  }
  return best;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics[name] = Metric{value, unit, value, value, 1};
}

void Report::set(const std::string& name, const Samples& s,
                 const std::string& unit) {
  metrics[name] =
      Metric{s.median(), unit, s.quantile(0.25), s.quantile(0.75), s.size()};
}

bool verify(const char* workload, sdvm::Result<std::int64_t> code,
            const std::vector<std::string>& outputs,
            const std::string& expected) {
  if (!code.is_ok()) {
    std::fprintf(stderr, "%s: program did not finish: %s\n", workload,
                 code.status().to_string().c_str());
    return false;
  }
  if (code.value() != 0) {
    std::fprintf(stderr, "%s: exit code %lld\n", workload,
                 static_cast<long long>(code.value()));
    return false;
  }
  if (outputs.empty() || outputs.back() != expected) {
    std::fprintf(stderr, "%s: output '%s', expected '%s'\n", workload,
                 outputs.empty() ? "" : outputs.back().c_str(),
                 expected.c_str());
    return false;
  }
  return true;
}

std::string primes_expected(std::int64_t p, std::int64_t width) {
  // Rounds test [start, start + width) from start = 2; the program stops
  // after the round holding the p-th prime and prints every prime found.
  const std::int64_t pth = sdvm::apps::nth_prime(static_cast<int>(p));
  const std::int64_t round_end = 2 + ((pth - 2) / width + 1) * width;
  std::int64_t found = p;
  for (std::int64_t n = pth + 1; n < round_end; ++n) {
    bool prime = true;
    for (std::int64_t d = 2; d * d <= n; ++d) {
      if (n % d == 0) {
        prime = false;
        break;
      }
    }
    if (prime) ++found;
  }
  return std::to_string(found);
}

sdvm::metrics::MetricsSnapshot registry(sdvm::Cluster& c) {
  sdvm::metrics::MetricsSnapshot total;
  for (std::size_t i = 0; i < c.size(); ++i) {
    auto st = c.status(i);
    if (st.is_ok()) total.merge(st.value().metrics);
  }
  return total;
}

std::uint64_t delta(const sdvm::metrics::MetricsSnapshot& after,
                    const sdvm::metrics::MetricsSnapshot& before,
                    const std::string& name) {
  const std::uint64_t a = after.counter(name);
  const std::uint64_t b = before.counter(name);
  return a > b ? a - b : 0;
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Median of five batches of `iters` calls, in nanoseconds per call.
template <typename Fn>
double time_ns(int iters, Fn&& fn) {
  Samples batches;
  for (int b = 0; b < 5; ++b) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    batches.add(seconds_since(t0) * 1e9 / iters);
  }
  return batches.median();
}

}  // namespace

LayerProbe probe_message_layers(std::size_t body_bytes) {
  sdvm::SiteConfig cfg;
  cfg.encrypt = true;
  sdvm::SecurityManager a(cfg);
  sdvm::SecurityManager b(cfg);
  a.set_local_site(1);
  b.set_local_site(2);

  sdvm::SdMessage msg;
  msg.src = 1;
  msg.dst = 2;
  msg.src_mgr = msg.dst_mgr = sdvm::ManagerId::kAttractionMemory;
  msg.type = sdvm::MsgType::kApplyParam;
  msg.seq = 7;
  const std::size_t header = msg.serialize_body().size();
  msg.payload.resize(body_bytes > header ? body_bytes - header : 1);
  for (std::size_t i = 0; i < msg.payload.size(); ++i) {
    msg.payload[i] = static_cast<std::byte>(i * 31 + 7);
  }

  LayerProbe p;
  std::size_t sink = 0;
  const std::vector<std::byte> body = msg.serialize_body();
  p.serialize_ns = time_ns(4000, [&] { sink += msg.serialize_body().size(); });
  p.deserialize_ns = time_ns(4000, [&] {
    auto m = sdvm::SdMessage::deserialize_body(1, 2, body);
    sink += m.is_ok() ? m.value().payload.size() : 0;
  });
  const std::vector<std::byte> wire = a.protect(msg);
  p.protect_ns = time_ns(2000, [&] { sink += a.protect(msg).size(); });
  p.unprotect_ns = time_ns(2000, [&] {
    auto m = b.unprotect(wire);
    sink += m.is_ok() ? m.value().payload.size() : 0;
  });
  if (sink == 0) std::fprintf(stderr, "layer probe produced nothing\n");
  return p;
}

void report_registry_layers(Report& r,
                            const sdvm::metrics::MetricsSnapshot& before,
                            const sdvm::metrics::MetricsSnapshot& after,
                            std::uint64_t programs, double wall_s,
                            bool encrypted) {
  const auto d = [&](const char* name) {
    return static_cast<double>(delta(after, before, name));
  };
  const double per_prog = programs > 0 ? static_cast<double>(programs) : 1;

  const double help_sent = d("sched.help_requests_sent");
  const double executed = d("proc.executed");
  r.set("sched.help_requests_sent", help_sent / per_prog, kUnitCount);
  r.set("sched.help_hit_ratio", ratio(d("sched.help_frames_received"), help_sent),
        kUnitRatio);
  r.set("sched.given_share", ratio(d("sched.help_frames_given"), executed),
        kUnitRatio);

  r.set("code.compiles", d("code.compiles") / per_prog, kUnitCount);
  r.set("code.cache_hits", d("code.cache_hits") / per_prog, kUnitCount);

  // Histograms: the delta of their recorded-nanosecond sums.
  const auto hist_sum = [&](const char* name) {
    const auto* a = after.find(name);
    const auto* b = before.find(name);
    const std::uint64_t sa = a == nullptr ? 0 : a->sum;
    const std::uint64_t sb = b == nullptr ? 0 : b->sum;
    return sa > sb ? static_cast<double>(sa - sb) : 0.0;
  };
  const double runtime_ns = hist_sum("proc.runtime_ns");
  const double vm_ns = hist_sum("proc.vm_dispatch_ns");
  r.set("proc.executed", executed / per_prog, kUnitCount);
  r.set("proc.context_ns_per_frame",
        ratio(runtime_ns > vm_ns ? runtime_ns - vm_ns : 0, executed), kUnitNs);
  r.set("microc.vm_share", ratio(vm_ns, runtime_ns), kUnitRatio);
  r.set("microc.vm_ns_per_frame", ratio(vm_ns, executed), kUnitNs);

  const double sent = d("msg.sent");
  const double bytes = d("msg.bytes_sent");
  r.set("msg.sent", sent / per_prog, kUnitCount);
  r.set("msg.bytes_sent", bytes / per_prog, "bytes");
  r.set("msg.per_frame", ratio(sent, executed), kUnitRatio);
  for (const char* kind : {"apply-param", "help-request", "help-reply-frame",
                           "help-reply-none", "heartbeat", "site-gossip"}) {
    const std::string name = std::string("msg.sent.") + kind;
    r.set(name, d(name.c_str()) / per_prog, kUnitCount);
  }

  // Top three message kinds of the window, for the record.
  std::vector<std::pair<std::uint64_t, std::string>> kinds;
  for (const auto& v : after.values) {
    if (v.name.rfind("msg.sent.", 0) != 0) continue;
    const std::uint64_t n = delta(after, before, v.name);
    if (n > 0) kinds.emplace_back(n, v.name);
  }
  std::sort(kinds.rbegin(), kinds.rend());
  std::string top = "{";
  for (std::size_t i = 0; i < kinds.size() && i < 3; ++i) {
    top += (i ? "," : "") + std::string("\"") + kinds[i].second + "\":" +
           json_num(static_cast<double>(kinds[i].first) / per_prog);
  }
  r.note("msg_top3_per_program", top + "}");

  // Security and serialization probes at the window's mean message size
  // (the registry keeps byte totals, not a size distribution).
  const auto mean_bytes =
      static_cast<std::size_t>(sent > 0 ? bytes / sent : 64);
  const LayerProbe probe = probe_message_layers(std::max<std::size_t>(mean_bytes, 32));
  r.note("probe_message_bytes", std::to_string(mean_bytes));
  r.set("message.serialize_ns", probe.serialize_ns, kUnitNs);
  r.set("message.deserialize_ns", probe.deserialize_ns, kUnitNs);
  r.set("security.protect_ns", probe.protect_ns, kUnitNs);
  r.set("security.unprotect_ns", probe.unprotect_ns, kUnitNs);
  // With encryption on, each message is sealed once and opened once;
  // without it the security manager only frames the body.
  r.set("security.share",
        encrypted ? ratio(sent * (probe.protect_ns + probe.unprotect_ns) * 1e-9,
                          wall_s)
                  : 0.0,
        kUnitRatio);
}

void report_membership_layers(Report& r,
                              const sdvm::metrics::MetricsSnapshot& settled,
                              std::size_t joins) {
  const double n = joins > 0 ? static_cast<double>(joins) : 1;
  for (const char* name : {"cluster.signon_messages", "cluster.heartbeats_sent",
                           "dir.shard_handoffs", "dir.lease_renewals"}) {
    r.set(name, static_cast<double>(settled.counter(name)) / n, kUnitCount);
  }
}

void report_net_layer(Report& r, const NetCounters& window,
                      std::uint64_t programs) {
  r.set("net.frames_sent",
        window.frames_sent / static_cast<double>(programs > 0 ? programs : 1),
        kUnitCount);
  r.set("net.frames_per_batch", ratio(window.frames_sent, window.batches),
        kUnitRatio);
  r.set("net.flush_deadline_share", ratio(window.deadline_hits, window.batches),
        kUnitRatio);
}

void report_sim_layer(Report& r, double probe_events, double events_per_join,
                      double pending_peak) {
  r.set("sim.events", probe_events, kUnitCount);
  r.set("sim.events_per_join", events_per_join, kUnitCount);
  r.set("sim.pending_peak", pending_peak, kUnitCount);
}

namespace {

/// The CPUs this process may run on, read once before any pinning.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    return v;
  }();
  return cpus;
}

}  // namespace

std::size_t rotation_period() {
  return std::max<std::size_t>(allowed_cpus().size(), 1);
}

void rotate_cpu(std::size_t k) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[k % cpus.size()], &one);
  (void)sched_setaffinity(0, sizeof(one), &one);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void report_end_to_end(Report& r, const Samples& setup_s, const Phase& timed,
                       const Samples& makespan, double speedup,
                       double events_per_s) {
  r.set("setup_s", setup_s, kUnitS);
  r.set("makespan_s", makespan, kUnitS);
  const double q = tail_percentile(timed.wall_s.size());
  r.set("makespan_tail_s", timed.wall_s.quantile(q > 0 ? q : 0.5), kUnitS);
  r.metrics["makespan_tail_s"].n = timed.wall_s.size();
  r.note("makespan_tail_percentile", std::to_string(static_cast<int>(q * 100 + 0.5)));
  r.note("makespan_tail_samples_beyond",
         std::to_string(static_cast<std::size_t>(
             static_cast<double>(timed.wall_s.size()) * (1.0 - q))));
  r.set("speedup", speedup, "x");
  r.set("events_per_s", events_per_s, "1/s");
  r.set("peak_rss_mb", peak_rss_mb(), "MiB");
}

}  // namespace perfbench
