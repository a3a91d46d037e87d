// simscale — raw discrete-event throughput of the simulator at large
// memberships: how many simulated events per wall-clock second the
// event core sustains while a cluster of n sites idles
// (heartbeats, gossip, failure detection — the permanent background of
// every chaos and scale run).
//
//   bench_simscale [--smoke] [--sites N]... [--virtual-secs S] [--zones Z]
//
// Each membership is measured twice: construction (n sequential
// sign-ons) and a steady-state idle window. One JSON line per size goes
// to BENCH_sim_scale.json with events/sec for both phases. --smoke runs
// the small sizes only, as a CI guard that the event loop never regresses
// to a super-linear scan; the full sweep covers 8..1000 sites.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/sim_cluster.hpp"
#include "sim/topology.hpp"

using namespace sdvm;

namespace {

double wall_seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

/// The chaos harness's large-membership profile: ring heartbeats and
/// delta gossip above 64 sites, full mesh (paper behavior) below.
SiteConfig scale_site_config(int sites) {
  SiteConfig cfg;
  if (sites > 64) {
    cfg.heartbeat_fanout = 4;
    cfg.gossip_delta = true;
    cfg.heartbeat_interval = 200'000'000;
    cfg.failure_timeout = kNanosPerSecond;
    cfg.help_retry_interval = 250'000'000;
  }
  return cfg;
}

struct Sample {
  int sites = 0;
  int zones = 0;
  double build_secs = 0;       // wall time to sign on all n sites
  double idle_secs = 0;        // wall time for the idle window
  double virtual_secs = 0;     // simulated span of the idle window
  std::uint64_t build_events = 0;
  std::uint64_t idle_events = 0;

  [[nodiscard]] double idle_events_per_sec() const {
    return idle_secs > 0 ? static_cast<double>(idle_events) / idle_secs : 0;
  }
};

Sample measure(int sites, int zones, double virtual_secs) {
  sim::SimCluster::Options opts;
  if (zones > 1) {
    net::LinkModel intra;
    intra.latency = 20'000;
    intra.per_byte = 5;
    net::LinkModel up;
    up.latency = 200'000;
    up.per_byte = 10;
    opts.zones = sim::make_rack_topology(zones, 0, intra, up);
    for (int r = 0; r < zones; ++r) {
      opts.zones[static_cast<std::size_t>(r) + 1].sites =
          sites / zones + (r < sites % zones ? 1 : 0);
    }
  }
  sim::SimCluster cluster(opts);
  const SiteConfig cfg = scale_site_config(sites);

  Sample s;
  s.sites = sites;
  s.zones = zones;
  s.virtual_secs = virtual_secs;

  auto t0 = std::chrono::steady_clock::now();
  if (zones > 1) {
    if (!cluster.add_topology_sites(cfg).is_ok()) return s;
  } else {
    cluster.add_sites(sites, 1.0, cfg);
  }
  s.build_secs = wall_seconds(t0);
  s.build_events = cluster.loop().executed();

  t0 = std::chrono::steady_clock::now();
  cluster.loop().run_for(static_cast<Nanos>(virtual_secs * kNanosPerSecond));
  s.idle_secs = wall_seconds(t0);
  s.idle_events = cluster.loop().executed() - s.build_events;
  return s;
}

void append_record(const Sample& s) {
  std::FILE* f = std::fopen("BENCH_sim_scale.json", "a");
  if (f == nullptr) return;
  std::fprintf(
      f,
      "{\"bench\":\"sim_scale\",\"sites\":%d,\"zones\":%d,"
      "\"virtual_secs\":%.1f,\"build_secs\":%.3f,\"build_events\":%llu,"
      "\"idle_secs\":%.3f,\"idle_events\":%llu,\"events_per_sec\":%.0f}\n",
      s.sites, s.zones, s.virtual_secs, s.build_secs,
      static_cast<unsigned long long>(s.build_events), s.idle_secs,
      static_cast<unsigned long long>(s.idle_events), s.idle_events_per_sec());
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  double virtual_secs = 10.0;
  int zones = 0;
  std::vector<int> sizes;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--sites") == 0 && i + 1 < argc) {
      sizes.push_back(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--virtual-secs") == 0 && i + 1 < argc) {
      virtual_secs = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--zones") == 0 && i + 1 < argc) {
      zones = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--sites N]... [--virtual-secs S] "
                   "[--zones Z]\n",
                   argv[0]);
      return 2;
    }
  }
  if (sizes.empty()) {
    sizes = smoke ? std::vector<int>{8, 64} : std::vector<int>{8, 64, 256, 1000};
  }
  if (smoke && virtual_secs > 5.0) virtual_secs = 5.0;

  std::printf("%8s %6s %12s %12s %14s\n", "sites", "zones", "build-s",
              "idle-s", "events/sec");
  for (int n : sizes) {
    Sample s = measure(n, zones, virtual_secs);
    if (s.idle_events == 0) {
      std::fprintf(stderr, "measurement failed at %d sites\n", n);
      return 1;
    }
    std::printf("%8d %6d %12.3f %12.3f %14.0f\n", s.sites, s.zones,
                s.build_secs, s.idle_secs, s.idle_events_per_sec());
    append_record(s);
  }
  return 0;
}
