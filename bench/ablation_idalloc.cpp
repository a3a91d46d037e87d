// Experiment A2 (paper §4, cluster manager): the three logical-id
// allocation concepts — a central contact site ("central point of
// failure"), id-block contingents, and modulo servers. A join storm of 24
// sites measures sign-on message cost and virtual join latency per
// strategy.
#include <cstdio>
#include <set>

#include "sim/sim_cluster.hpp"

using namespace sdvm;

int main() {
  std::printf("A2: logical-id allocation strategies (24-site join storm)\n");
  std::printf("%12s | %14s | %16s | %s\n", "strategy", "sign-on msgs",
              "mean join (ms)", "unique ids");
  std::printf("----------------------------------------------------------------\n");

  struct Case {
    IdAllocStrategy strategy;
    const char* name;
  };
  for (auto [strategy, name] : {Case{IdAllocStrategy::kCentralContact,
                                     "central"},
                                Case{IdAllocStrategy::kContingent,
                                     "contingent"},
                                Case{IdAllocStrategy::kModulo, "modulo"}}) {
    sim::SimCluster cluster;
    SiteConfig cfg;
    cfg.id_alloc = strategy;
    Nanos total_join = 0;
    int joins = 0;
    for (int i = 0; i < 24; ++i) {
      Nanos t0 = cluster.now();
      cfg.name = "site" + std::to_string(i + 1);
      // Contact a spread of existing members, not always the founder, so
      // id requests actually get forwarded under central/modulo.
      cluster.add_site(cfg, i > 1 ? (i * 7 + 3) % i : 0);
      if (i > 0) {
        total_join += cluster.now() - t0;
        ++joins;
      }
    }
    std::uint64_t messages = 0;
    std::set<SiteId> ids;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      messages += cluster.site(i).introspect().metrics.counter(
          "cluster.signon_messages");
      ids.insert(cluster.site(i).id());
    }
    std::printf("%12s | %14llu | %16.3f | %zu/24%s\n", name,
                static_cast<unsigned long long>(messages),
                static_cast<double>(total_join) / joins / 1e6, ids.size(),
                ids.size() == 24 ? "" : "  !! COLLISION");
  }
  std::printf("\ncentral: every sign-on funnels through site 1 (single point "
              "of failure);\ncontingent: blocks amortize the central trips; "
              "modulo: no coordination at all.\n");
  return 0;
}
