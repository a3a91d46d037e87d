#include "runtime/message_manager.hpp"

#include <algorithm>

#include "runtime/site.hpp"

namespace sdvm {

void MessageManager::register_metrics(metrics::MetricsRegistry& registry) {
  registry.register_counter("msg.sent", &sent_count_);
  registry.register_counter("msg.received", &received_count_);
  registry.register_counter("msg.bytes_sent", &bytes_sent_);
  registry.register_counter("msg.bytes_received", &bytes_received_);
  registry.register_counter("msg.forwarded_departed", &forwarded_departed_);
  registry.register_provider([this](metrics::MetricsSnapshot& s) {
    for (std::size_t i = 0; i < kTypeSlots; ++i) {
      if (sent_by_type_[i] != 0) {
        s.add_counter(std::string("msg.sent.") +
                          to_string(static_cast<MsgType>(i)),
                      sent_by_type_[i]);
      }
      if (received_by_type_[i] != 0) {
        s.add_counter(std::string("msg.received.") +
                          to_string(static_cast<MsgType>(i)),
                      received_by_type_[i]);
      }
    }
  });
}

Status MessageManager::send(SdMessage msg) {
  msg.src = site_.cluster().local_id();
  if (msg.seq == 0) msg.seq = next_seq();
  // Sim mode: a running microthread's results — including loopback ones —
  // leave the microthread only at its virtual completion time (§3.2
  // step 4); otherwise a consumer stolen by another site could start
  // before its producer virtually finished.
  if (defer_ != nullptr) {
    defer_->push_back(std::move(msg));
    return Status::ok();
  }
  return transmit(std::move(msg));
}

Status MessageManager::send_burst(std::vector<SdMessage> msgs) {
  Status first = Status::ok();
  SiteId local = site_.cluster().local_id();
  // Group by destination address, preserving per-destination order.
  std::vector<std::pair<std::string, std::vector<net::Frame>>> by_dest;
  for (auto& msg : msgs) {
    msg.src = local;
    if (msg.seq == 0) msg.seq = next_seq();
    if (defer_ != nullptr) {
      defer_->push_back(std::move(msg));
      continue;
    }
    if (msg.dst == local && local != kInvalidSite) {
      count_sent(msg.type);
      count_received(msg.type);
      deliver(msg);
      continue;
    }
    auto addr = site_.cluster().physical_address(msg.dst);
    if (!addr.is_ok()) {
      if (first.is_ok()) first = addr.status();
      fail_request(msg.seq, addr.status());
      continue;
    }
    if (site_.transport() == nullptr) {
      Status st =
          Status::error(ErrorCode::kFailedPrecondition, "no transport");
      if (first.is_ok()) first = st;
      fail_request(msg.seq, st);
      continue;
    }
    count_sent(msg.type);
    auto wire = site_.security().protect(msg);
    bytes_sent_ += wire.size();
    auto it = std::find_if(by_dest.begin(), by_dest.end(), [&](auto& e) {
      return e.first == addr.value();
    });
    if (it == by_dest.end()) {
      by_dest.emplace_back(addr.value(), std::vector<net::Frame>{});
      it = std::prev(by_dest.end());
    }
    it->second.push_back(std::move(wire));
  }
  for (auto& [dest, frames] : by_dest) {
    Status st = site_.transport()->send_batch(dest, std::move(frames));
    if (!st.is_ok() && first.is_ok()) first = st;
    site_.transport()->flush(dest);
  }
  return first;
}

Status MessageManager::request(SdMessage msg, ReplyHandler on_reply) {
  msg.src = site_.cluster().local_id();
  msg.seq = next_seq();
  pending_[msg.seq] = Pending{msg.dst, std::move(on_reply)};
  std::uint64_t seq = msg.seq;
  if (defer_ != nullptr) {
    defer_->push_back(std::move(msg));
    return Status::ok();
  }
  Status st = transmit(std::move(msg));
  if (!st.is_ok()) fail_request(seq, st);
  return st;
}

void MessageManager::fail_request(std::uint64_t seq, const Status& st) {
  auto node = pending_.extract(seq);
  if (!node.empty()) node.mapped().handler(st);
}

Status MessageManager::respond(const SdMessage& request, SdMessage msg) {
  msg.dst = request.src;
  msg.reply_to = request.seq;
  if (msg.program.value == 0) msg.program = request.program;
  return send(std::move(msg));
}

Status MessageManager::transmit(SdMessage msg) {
  SiteId local = site_.cluster().local_id();
  if (msg.dst == local && local != kInvalidSite) {
    // Loopback: skip the wire entirely (Figure 4: the execution layer
    // "alone would suffice to run an SDVM on one site only").
    count_sent(msg.type);
    count_received(msg.type);
    deliver(msg);
    return Status::ok();
  }

  auto addr = site_.cluster().physical_address(msg.dst);
  if (!addr.is_ok()) return addr.status();
  if (site_.transport() == nullptr) {
    return Status::error(ErrorCode::kFailedPrecondition, "no transport");
  }
  count_sent(msg.type);
  auto wire = site_.security().protect(msg);
  bytes_sent_ += wire.size();
  return site_.transport()->send(addr.value(), std::move(wire));
}

Status MessageManager::send_to_address(const std::string& physical,
                                       SdMessage msg) {
  msg.src = site_.cluster().local_id();
  if (msg.seq == 0) msg.seq = next_seq();
  if (site_.transport() == nullptr) {
    return Status::error(ErrorCode::kFailedPrecondition, "no transport");
  }
  count_sent(msg.type);
  auto wire = site_.security().protect(msg);
  bytes_sent_ += wire.size();
  return site_.transport()->send(physical, std::move(wire));
}

void MessageManager::on_raw(std::span<const std::byte> wire) {
  auto msg = site_.security().unprotect(wire);
  if (!msg.is_ok()) {
    SDVM_WARN(site_.tag()) << "dropping bad wire frame: "
                           << msg.status().to_string();
    return;
  }
  bytes_received_ += wire.size();
  count_received(msg.value().type);
  deliver(msg.value());
}

namespace {

/// Messages a departed site must relay to its successor: anything carrying
/// program state (microframes, results, memory objects, io, another site's
/// sign-off import). Control-plane traffic (heartbeats, gossip, checkpoint
/// coordination, status queries) is addressed to *this* site's role and
/// dies with it.
bool forwardable_after_sign_off(MsgType t) {
  switch (t) {
    case MsgType::kHelpReplyFrame:
    case MsgType::kApplyParam:
    case MsgType::kApplyParamNack:
    case MsgType::kObjectRequest:
    case MsgType::kObjectGrant:
    case MsgType::kObjectRecall:
    case MsgType::kObjectReturn:
    case MsgType::kObjectMiss:
    case MsgType::kDirectoryImport:
    // Shard state in flight to a departed site must reach its successor;
    // lease/stale/recover control traffic is view-bound and dies here.
    case MsgType::kShardHandoff:
    case MsgType::kShardRegister:
    case MsgType::kShardRecoverReply:
    case MsgType::kIoOutput:
    case MsgType::kFileRead:
    case MsgType::kFileReadReply:
    case MsgType::kFileWrite:
    case MsgType::kFileWriteAck:
      return true;
    default:
      return false;
  }
}

/// Bounds relay chains through concurrently departing sites; a cycle can
/// only arise when two sites pick each other as successors before either
/// hears the other's announcement.
constexpr std::uint8_t kMaxForwardHops = 8;

}  // namespace

void MessageManager::on_raw_departed(std::span<const std::byte> wire) {
  auto msg = site_.security().unprotect(wire);
  if (!msg.is_ok()) return;
  SdMessage m = std::move(msg).value();
  if (!forwardable_after_sign_off(m.type)) return;
  if (m.hops >= kMaxForwardHops) {
    SDVM_WARN(site_.tag()) << "dropping " << to_string(m.type)
                           << " after " << int(m.hops) << " sign-off relays";
    return;
  }
  SiteId local = site_.cluster().local_id();
  SiteId succ = site_.cluster().resolve_successor(local);
  if (succ == kInvalidSite || succ == local) return;
  auto addr = site_.cluster().physical_address(succ);
  if (!addr.is_ok() || site_.transport() == nullptr) return;
  m.dst = succ;
  // The successor never issued the request this reply answers; a preserved
  // reply_to would be dropped there as an orphan. Clear it so the payload
  // (a given-away frame, a granted object, ...) dispatches to the manager
  // as unsolicited state. Requests keep their seq, so the successor's
  // respond() still reaches the original requester.
  m.reply_to = 0;
  ++m.hops;
  ++forwarded_departed_;
  auto out = site_.security().protect(m);
  bytes_sent_ += out.size();
  (void)site_.transport()->send(addr.value(), std::move(out));
}

void MessageManager::deliver(const SdMessage& msg) {
  site_.cluster().note_heard(msg.src);

  if (msg.reply_to != 0) {
    auto node = pending_.extract(msg.reply_to);
    if (!node.empty()) {
      node.mapped().handler(msg);
      return;
    }
    // Reply to an expired/duplicate request: fall through only for types
    // that are meaningful unsolicited; otherwise drop.
    SDVM_DEBUG(site_.tag()) << "orphan reply " << to_string(msg.type);
    return;
  }
  site_.dispatch(msg);
}

void MessageManager::fail_pending_to(SiteId dead) {
  std::vector<ReplyHandler> failed;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.target == dead) {
      failed.push_back(std::move(it->second.handler));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& h : failed) {
    h(Status::error(ErrorCode::kUnavailable,
                    "site " + std::to_string(dead) + " is dead"));
  }
}

}  // namespace sdvm
