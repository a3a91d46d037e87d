#include "runtime/message_manager.hpp"

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

void MessageManager::stamp(SdMessage& msg) {
  msg.src = site_.cluster().local_id();
  if (msg.seq == 0) msg.seq = next_seq();
}

Status MessageManager::send(SdMessage msg) {
  stamp(msg);
  // Sim mode: a running microthread's results — including loopback ones —
  // leave the microthread only at its virtual completion time (§3.2
  // step 4); otherwise a consumer stolen by another site could start
  // before its producer virtually finished.
  if (defer_ != nullptr) {
    defer_->push_back(std::move(msg));
    return Status::ok();
  }
  auto to = route(msg.dst);
  if (!to.is_ok()) return to.status();
  if (to.value() == nullptr) {
    loop_back(msg);
    return Status::ok();
  }
  return site_.transport()->send(*to.value(), seal(msg));
}

Status MessageManager::send_burst(std::vector<SdMessage> msgs) {
  Status first = Status::ok();
  auto keep_first = [&first](const Status& st) {
    if (!st.is_ok() && first.is_ok()) first = st;
  };
  // Per-destination batches in first-appearance order; `batch_of` maps a
  // site to its batch, so grouping costs O(1) per message.
  struct Batch {
    const std::string* address;
    std::vector<net::Frame> frames;
  };
  std::vector<Batch> batches;
  std::unordered_map<SiteId, std::size_t> batch_of;
  for (auto& msg : msgs) {
    stamp(msg);
    if (defer_ != nullptr) {
      defer_->push_back(std::move(msg));
      continue;
    }
    auto to = route(msg.dst);
    if (!to.is_ok()) {
      keep_first(to.status());
      fail_request(msg.seq, to.status());
      continue;
    }
    if (to.value() == nullptr) {
      loop_back(msg);
      continue;
    }
    auto [it, fresh] = batch_of.try_emplace(msg.dst, batches.size());
    if (fresh) batches.push_back(Batch{to.value(), {}});
    batches[it->second].frames.push_back(seal(msg));
  }
  for (auto& [address, frames] : batches) {
    keep_first(site_.transport()->send_batch(*address, std::move(frames)));
    site_.transport()->flush(*address);
  }
  return first;
}

std::size_t MessageManager::broadcast(const SdMessage& proto,
                                      const std::vector<SiteId>& ids) {
  const SiteId local = site_.cluster().local_id();
  std::vector<SdMessage> burst;
  burst.reserve(ids.size());
  for (SiteId id : ids) {
    if (id == local) continue;
    burst.emplace_back(proto).dst = id;
  }
  const std::size_t n = burst.size();
  (void)send_burst(std::move(burst));
  return n;
}

Status MessageManager::request(SdMessage msg, ReplyHandler on_reply) {
  msg.seq = next_seq();
  pending_[msg.seq] = Pending{msg.dst, std::move(on_reply)};
  const std::uint64_t seq = msg.seq;
  Status st = send(std::move(msg));
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

Result<const std::string*> MessageManager::route(SiteId dst) {
  const SiteId local = site_.cluster().local_id();
  if (dst == local && local != kInvalidSite) {
    return static_cast<const std::string*>(nullptr);
  }
  const std::string* address = site_.cluster().physical_address(dst);
  if (address == nullptr) {
    return Status::error(ErrorCode::kNotFound,
                         "unknown site " + std::to_string(dst));
  }
  if (site_.transport() == nullptr) {
    return Status::error(ErrorCode::kFailedPrecondition, "no transport");
  }
  return address;
}

net::Frame MessageManager::seal(const SdMessage& msg) {
  count_sent(msg.type);
  auto wire = site_.security().protect(msg);
  bytes_sent_ += wire.size();
  return wire;
}

void MessageManager::loop_back(const SdMessage& msg) {
  count_sent(msg.type);
  count_received(msg.type);
  deliver(msg);
}

Status MessageManager::send_to_address(const std::string& physical,
                                       SdMessage msg) {
  stamp(msg);
  if (site_.transport() == nullptr) {
    return Status::error(ErrorCode::kFailedPrecondition, "no transport");
  }
  return site_.transport()->send(physical, seal(msg));
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
  const SiteId local = site_.cluster().local_id();
  const SiteId succ = site_.cluster().resolve_successor(local);
  if (succ == kInvalidSite || succ == local) return;
  auto to = route(succ);
  if (!to.is_ok()) return;
  m.dst = succ;
  // The successor never issued the request this reply answers; a preserved
  // reply_to would be dropped there as an orphan. Clear it so the payload
  // (a given-away frame, a granted object, ...) dispatches to the manager
  // as unsolicited state. Requests keep their seq, so the successor's
  // respond() still reaches the original requester.
  m.reply_to = 0;
  ++m.hops;
  ++forwarded_departed_;
  (void)site_.transport()->send(*to.value(), seal(m));
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
