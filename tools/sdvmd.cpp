// sdvmd — the SDVM daemon, as a deployable binary (paper §2.1: "To join a
// cluster, only the SDVM daemon has to be started and the (ip) address of
// a site which is already part of the cluster provided").
//
//   start a new cluster:   sdvmd --port 7000
//   join an existing one:  sdvmd --port 7001 --join 127.0.0.1:7000
//
// Options:
//   --port N           listen port (default 0 = ephemeral, printed)
//   --join HOST:PORT   sign on via a running daemon
//   --name NAME        site name for logs/status
//   --platform ID      platform id (affects binary artifact sharing)
//   --speed F          relative speed advertised to the cluster
//   --code-site        act as a code distribution site
//   --encrypt PW       enable the security manager with this password
//   --checkpoints      enable crash management (checkpoint + recovery)
//   --state-dir DIR    durable checkpoint directory; a daemon restarted
//                      with the same directory advertises its recoverable
//                      programs during sign-on (cold-restart recovery)
//   --replication K    replicate committed epochs to K sites (0 = all)
//   --heartbeat-ms N       heartbeat emission interval
//   --failure-timeout-ms N silence window before a peer is declared dead
//   --checkpoint-ms N      coordinated checkpoint interval
//   --status-every S   print the site status every S seconds
//
// The daemon runs until SIGINT/SIGTERM, then signs off gracefully
// (relocating its microframes and memory) before exiting.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "api/tcp_node.hpp"

namespace {
std::atomic<bool> g_stop{false};
void on_signal(int) { g_stop.store(true); }
}  // namespace

int main(int argc, char** argv) {
  using namespace sdvm;

  TcpNode::Options options;
  std::string join_addr;
  int status_every = 0;

  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      options.port = static_cast<std::uint16_t>(std::atoi(need("--port")));
    } else if (std::strcmp(argv[i], "--join") == 0) {
      join_addr = need("--join");
    } else if (std::strcmp(argv[i], "--name") == 0) {
      options.site.name = need("--name");
    } else if (std::strcmp(argv[i], "--platform") == 0) {
      options.site.platform = need("--platform");
    } else if (std::strcmp(argv[i], "--speed") == 0) {
      options.site.speed = std::atof(need("--speed"));
    } else if (std::strcmp(argv[i], "--code-site") == 0) {
      options.site.code_distribution_site = true;
    } else if (std::strcmp(argv[i], "--encrypt") == 0) {
      options.site.encrypt = true;
      options.site.cluster_password = need("--encrypt");
    } else if (std::strcmp(argv[i], "--checkpoints") == 0) {
      options.site.checkpoints_enabled = true;
    } else if (std::strcmp(argv[i], "--state-dir") == 0) {
      options.site.state_dir = need("--state-dir");
      options.site.checkpoints_enabled = true;  // durability implies it
    } else if (std::strcmp(argv[i], "--replication") == 0) {
      options.site.replication_factor =
          static_cast<std::uint32_t>(std::atoi(need("--replication")));
    } else if (std::strcmp(argv[i], "--heartbeat-ms") == 0) {
      options.site.heartbeat_interval =
          std::atoll(need("--heartbeat-ms")) * 1'000'000;
    } else if (std::strcmp(argv[i], "--failure-timeout-ms") == 0) {
      options.site.failure_timeout =
          std::atoll(need("--failure-timeout-ms")) * 1'000'000;
    } else if (std::strcmp(argv[i], "--checkpoint-ms") == 0) {
      options.site.checkpoint_interval =
          std::atoll(need("--checkpoint-ms")) * 1'000'000;
    } else if (std::strcmp(argv[i], "--status-every") == 0) {
      status_every = std::atoi(need("--status-every"));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  auto node = TcpNode::create(options);
  if (!node.is_ok()) {
    std::fprintf(stderr, "cannot start daemon: %s\n",
                 node.status().to_string().c_str());
    return 1;
  }

  if (join_addr.empty()) {
    node.value()->bootstrap();
    std::printf("sdvmd: new cluster at %s (site %u)\n",
                node.value()->address().c_str(), node.value()->site().id());
  } else {
    Status joined =
        node.value()->join_cluster(join_addr, 15 * kNanosPerSecond);
    if (!joined.is_ok()) {
      std::fprintf(stderr, "cannot join %s: %s\n", join_addr.c_str(),
                   joined.to_string().c_str());
      return 1;
    }
    std::printf("sdvmd: joined via %s as site %u, listening at %s\n",
                join_addr.c_str(), node.value()->site().id(),
                node.value()->address().c_str());
  }
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  int ticks = 0;
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (status_every > 0 && ++ticks >= status_every * 5) {
      ticks = 0;
      std::fputs(node.value()->site().introspect().to_text().c_str(), stdout);
      std::fflush(stdout);
    }
  }

  std::printf("sdvmd: signing off...\n");
  {
    std::lock_guard lk(node.value()->site().lock());
    (void)node.value()->site().sign_off();
  }
  // Give relocation messages a moment on the wire before closing sockets.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  node.value()->shutdown();
  std::printf("sdvmd: bye\n");
  return 0;
}
