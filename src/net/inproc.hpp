// In-process message fabric. Endpoints are "inproc:<n>" strings; the fabric
// keeps one node table indexed by <n>. Supports:
//   * per-link latency/bandwidth model (delayed delivery via either a timer
//     thread in wall-clock mode or a caller-supplied scheduler in sim mode)
//   * loss probability, link cuts, partitions, site kill (fault injection)
//   * fabric-wide traffic counters (messages, bytes, drops) for the benches
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/transport.hpp"

namespace sdvm::net {

struct LinkModel {
  Nanos latency = 0;       // one-way propagation delay
  Nanos per_byte = 0;      // serialization cost per payload byte
  Nanos jitter = 0;        // uniform random extra delay in [0, jitter] —
                           // enough jitter REORDERS messages (the paper's
                           // UDP experience; our protocols must tolerate it)
  double loss = 0.0;       // drop probability in [0,1)
  bool cut = false;        // hard partition of this directed link
};

struct LinkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dropped = 0;
};

class InProcNetwork;

/// One endpoint on the fabric; implements Transport. Batched sends use
/// the base-class default (send_batch loops send, flush is a no-op) on
/// purpose: the fabric has no wire to coalesce for, and looping keeps
/// the loss RNG and the trace hook firing once per frame — the same
/// per-frame contract the batched TCP path guarantees.
class InProcEndpoint final : public Transport {
 public:
  InProcEndpoint(InProcNetwork* net, std::size_t slot, Receiver receiver)
      : net_(net),
        slot_(slot),
        address_("inproc:" + std::to_string(slot)),
        receiver_(std::move(receiver)) {}

  [[nodiscard]] std::string local_address() const override { return address_; }
  Status send(const std::string& to, std::vector<std::byte> bytes) override;
  void close() override;

 private:
  friend class InProcNetwork;
  InProcNetwork* net_;
  std::size_t slot_;  // the <n> of address_, its index in the node table
  std::string address_;
  Receiver receiver_;
};

/// Hook letting the simulator own delayed delivery: schedule(delay, to, fn)
/// must run fn after `delay` of *virtual* time. `to` is the destination
/// address, so the simulator can tag the delivery with the acted-on site
/// (exploration mode reorders deliveries per-destination).
using DeliveryScheduler =
    std::function<void(Nanos, const std::string&, std::function<void()>)>;

class InProcNetwork {
 public:
  /// seed drives the loss model deterministically.
  explicit InProcNetwork(std::uint64_t seed = 1);
  ~InProcNetwork();

  InProcNetwork(const InProcNetwork&) = delete;
  InProcNetwork& operator=(const InProcNetwork&) = delete;

  /// Creates an endpoint; the fabric owns nothing — callers keep the
  /// unique_ptr alive as long as they want to receive.
  [[nodiscard]] std::unique_ptr<InProcEndpoint> attach(Receiver receiver);

  /// Default model applied to links without an explicit override.
  void set_default_link(LinkModel model);
  void set_link(const std::string& from, const std::string& to,
                LinkModel model);

  /// Hierarchical zones (SimGrid-style): assign endpoints to zones and give
  /// zone pairs a link model. Resolution order per send: explicit per-pair
  /// link, then the (zone(from), zone(to)) model, then the default link.
  /// Zone ids are small dense integers; a node with no zone uses the
  /// default link unless a per-pair override exists.
  void set_node_zone(const std::string& address, int zone);
  void set_zone_link(int from_zone, int to_zone, LinkModel model);

  /// Kills an endpoint abruptly: all traffic to and from it vanishes.
  /// Models an uncontrolled site crash. An address the fabric never
  /// attached names no node and is ignored (as by set_node_zone).
  void kill(const std::string& address);
  [[nodiscard]] bool is_killed(const std::string& address) const;

  /// Cuts every link between group A and group B (both directions).
  void partition(const std::vector<std::string>& a,
                 const std::vector<std::string>& b);
  void heal();

  /// Installs a virtual-time scheduler (sim mode). Without one, delayed
  /// messages go through an internal timer thread; zero-delay messages are
  /// always delivered inline on the sender's thread.
  void set_delivery_scheduler(DeliveryScheduler scheduler);

  /// Observes every send decision: (from, to, payload bytes, delivered).
  /// `delivered == false` means the fabric dropped the message (kill, cut,
  /// partition or loss). Called under the fabric lock — the hook must not
  /// call back into the network.
  using TraceHook = std::function<void(const std::string&, const std::string&,
                                       std::size_t, bool)>;
  void set_trace_hook(TraceHook hook);

  /// Traffic over every link since construction or reset_stats().
  [[nodiscard]] LinkStats total_stats() const;
  void reset_stats();

 private:
  friend class InProcEndpoint;

  /// One attached (or since detached) endpoint.
  struct Node {
    InProcEndpoint* endpoint = nullptr;  // null once detached
    bool killed = false;
    std::optional<int> zone;
  };

  Status send_from(const InProcEndpoint& sender, const std::string& to,
                   std::vector<std::byte> bytes);
  /// The slot `address` names: <n> for "inproc:<n>" (canonical decimal) of
  /// an endpoint attached at some point; 0, the unused slot, otherwise.
  [[nodiscard]] std::size_t slot_locked(const std::string& address) const;
  [[nodiscard]] bool is_partitioned_locked(const std::string& from,
                                           const std::string& to) const;
  void detach(std::size_t slot);
  void deliver(std::size_t slot, std::vector<std::byte> bytes);
  void timer_loop();

  mutable std::mutex mu_;
  /// Indexed by the <n> of "inproc:<n>". Slot 0 is never handed out (it
  /// has no endpoint and is never killed), so the table's size is the next
  /// slot.
  std::vector<Node> nodes_ = std::vector<Node>(1);
  std::map<std::pair<std::string, std::string>, LinkModel> links_;
  LinkStats stats_;
  LinkModel default_link_;
  std::map<std::pair<int, int>, LinkModel> zone_links_;
  /// Each partition() call cuts group A from group B; membership is a set
  /// test so a 500×500 split costs O(1) per send, not a 250k-pair scan.
  struct PartitionCut {
    std::unordered_set<std::string> a;
    std::unordered_set<std::string> b;
  };
  std::vector<PartitionCut> partitioned_;
  DeliveryScheduler scheduler_;
  TraceHook trace_;
  Xoshiro256 rng_;

  // Wall-clock delayed delivery.
  struct Pending {
    Nanos due;
    std::uint64_t seq;
    std::size_t to;  // destination slot
    std::vector<std::byte> bytes;
    bool operator>(const Pending& o) const {
      return std::tie(due, seq) > std::tie(o.due, o.seq);
    }
  };
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> delayed_;
  std::uint64_t delayed_seq_ = 0;
  std::condition_variable timer_cv_;
  std::thread timer_thread_;
  bool stop_ = false;
};

}  // namespace sdvm::net
