// Message manager: "the central hub for information interchange with other
// sites" (paper §4, Figure 6). Serializes SDMessages, resolves logical →
// physical addresses through the cluster manager, passes frames through
// the security manager to the network manager, and dispatches inbound
// messages to the addressed manager. Also provides request/reply pairing.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/status.hpp"
#include "net/transport.hpp"
#include "runtime/message.hpp"
#include "runtime/metrics.hpp"

namespace sdvm {

class Site;

class MessageManager {
 public:
  explicit MessageManager(Site& site) : site_(site) {}

  /// Fire-and-forget send. Fills in src and a fresh seq. Messages to the
  /// local site are dispatched directly (loopback).
  Status send(SdMessage msg);

  /// Fire-and-forget burst. Messages are grouped by destination site and
  /// handed to the transport as per-peer batches (Transport::send_batch +
  /// flush, in first-appearance order), so a fan-out of N tiny messages
  /// leaves the site in O(peers) wire batches instead of N datagrams.
  /// Loopback messages dispatch inline during the pass, before any batch
  /// leaves; the first failure's status is returned, later messages still
  /// go out.
  Status send_burst(std::vector<SdMessage> msgs);

  /// One burst of copies of `proto`, one to each of `ids` other than this
  /// site, in list order. Returns how many copies it sent.
  std::size_t broadcast(const SdMessage& proto,
                        const std::vector<SiteId>& ids);

  /// Request expecting a reply (matched on reply_to == seq). The handler
  /// runs under the site lock when the reply (or a failure) arrives.
  using ReplyHandler = std::function<void(Result<SdMessage>)>;
  Status request(SdMessage msg, ReplyHandler on_reply);

  /// Convenience: reply to `request` with `msg` (sets dst/reply_to).
  Status respond(const SdMessage& request, SdMessage msg);

  /// Sends straight to a physical address, bypassing the cluster list.
  /// Needed for sign-on, when the joiner has no logical id yet.
  Status send_to_address(const std::string& physical, SdMessage msg);

  /// Entry point for raw wire data (called under the site lock).
  void on_raw(std::span<const std::byte> wire);

  /// Raw wire data arriving after this site signed off. State-carrying
  /// traffic (frames, results, objects, io, sign-off imports) still in
  /// flight when the site departed is forwarded to the announced
  /// successor — dropping it would strand the microframes the departing
  /// site just relocated there. Hop-capped against sign-off cycles.
  void on_raw_departed(std::span<const std::byte> wire);

  /// Fails every pending request addressed to a site now believed dead.
  void fail_pending_to(SiteId dead);

  /// Sim mode: while a microthread segment runs, its sends are buffered
  /// here and released at the segment's virtual completion time.
  void set_defer(std::vector<SdMessage>* buffer) { defer_ = buffer; }
  [[nodiscard]] bool defer_active() const { return defer_ != nullptr; }

  [[nodiscard]] std::uint64_t next_seq() { return ++seq_; }

  /// Registers this manager's instruments ("msg." prefix), including a
  /// provider that emits per-message-type send/receive families.
  void register_metrics(metrics::MetricsRegistry& registry);

 private:
  // Instruments (read "msg.*" through Site::introspect()).
  metrics::Counter sent_count_;
  metrics::Counter received_count_;
  metrics::Counter bytes_sent_;      // wire bytes (loopback excluded)
  metrics::Counter bytes_received_;
  metrics::Counter forwarded_departed_;  // relays after sign-off, in sent

  /// Stamps src and (if unset) a fresh seq.
  void stamp(SdMessage& msg);
  /// Where `dst` is reached: nullptr for this site (loopback), otherwise
  /// its physical address; an error for an unknown id or no transport.
  [[nodiscard]] Result<const std::string*> route(SiteId dst);
  /// The one outbound step for wire traffic: counts the message (total and
  /// per type), seals it and counts its wire bytes.
  [[nodiscard]] net::Frame seal(const SdMessage& msg);
  /// Loopback: skips the wire entirely (Figure 4: the execution layer
  /// "alone would suffice to run an SDVM on one site only").
  void loop_back(const SdMessage& msg);
  void deliver(const SdMessage& msg);
  /// Fails the pending request `seq` (if any) with `st`: it never left.
  void fail_request(std::uint64_t seq, const Status& st);

  static constexpr std::size_t kTypeSlots = 128;
  void count_sent(MsgType t) {
    ++sent_count_;
    auto i = static_cast<std::size_t>(t);
    if (i < kTypeSlots) ++sent_by_type_[i];
  }
  void count_received(MsgType t) {
    ++received_count_;
    auto i = static_cast<std::size_t>(t);
    if (i < kTypeSlots) ++received_by_type_[i];
  }

  struct Pending {
    SiteId target;
    ReplyHandler handler;
  };

  Site& site_;
  std::uint64_t seq_ = 0;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::vector<SdMessage>* defer_ = nullptr;
  std::array<std::uint64_t, kTypeSlots> sent_by_type_{};
  std::array<std::uint64_t, kTypeSlots> received_by_type_{};
};

}  // namespace sdvm
