#include "runtime/message.hpp"

namespace sdvm {

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kInvalid:            return "invalid";
    case MsgType::kSignOnRequest:      return "sign-on-request";
    case MsgType::kSignOnReply:        return "sign-on-reply";
    case MsgType::kSignOffNotice:      return "sign-off-notice";
    case MsgType::kSiteGossip:         return "site-gossip";
    case MsgType::kHeartbeat:          return "heartbeat";
    case MsgType::kIdBlockRequest:     return "id-block-request";
    case MsgType::kIdBlockReply:       return "id-block-reply";
    case MsgType::kSiteDead:           return "site-dead";
    case MsgType::kHelpRequest:        return "help-request";
    case MsgType::kHelpReplyFrame:     return "help-reply-frame";
    case MsgType::kHelpReplyNone:      return "help-reply-none";
    case MsgType::kCodeRequest:        return "code-request";
    case MsgType::kCodeReplyBinary:    return "code-reply-binary";
    case MsgType::kCodeReplySource:    return "code-reply-source";
    case MsgType::kCodeReplyMissing:   return "code-reply-missing";
    case MsgType::kCodeUpload:         return "code-upload";
    case MsgType::kProgramInfoRequest: return "program-info-request";
    case MsgType::kProgramInfoReply:   return "program-info-reply";
    case MsgType::kProgramTerminated:  return "program-terminated";
    case MsgType::kApplyParam:         return "apply-param";
    case MsgType::kApplyParamNack:     return "apply-param-nack";
    case MsgType::kObjectRequest:      return "object-request";
    case MsgType::kObjectGrant:        return "object-grant";
    case MsgType::kObjectRecall:       return "object-recall";
    case MsgType::kObjectReturn:       return "object-return";
    case MsgType::kObjectMiss:         return "object-miss";
    case MsgType::kDirectoryImport:    return "directory-import";
    case MsgType::kShardLease:         return "shard-lease";
    case MsgType::kShardHandoff:       return "shard-handoff";
    case MsgType::kShardRecover:       return "shard-recover";
    case MsgType::kShardRecoverReply:  return "shard-recover-reply";
    case MsgType::kShardRegister:      return "shard-register";
    case MsgType::kShardStale:         return "shard-stale";
    case MsgType::kIoOutput:           return "io-output";
    case MsgType::kFileRead:           return "file-read";
    case MsgType::kFileReadReply:      return "file-read-reply";
    case MsgType::kFileWrite:          return "file-write";
    case MsgType::kFileWriteAck:       return "file-write-ack";
    case MsgType::kMetricsQuery:       return "metrics-query";
    case MsgType::kMetricsReply:       return "metrics-reply";
    case MsgType::kCheckpointFreeze:   return "checkpoint-freeze";
    case MsgType::kCheckpointFrozen:   return "checkpoint-frozen";
    case MsgType::kCheckpointTakeShard: return "checkpoint-take-shard";
    case MsgType::kCheckpointData:     return "checkpoint-data";
    case MsgType::kCheckpointCommit:   return "checkpoint-commit";
    case MsgType::kCheckpointReplica:  return "checkpoint-replica";
    case MsgType::kRecoveryRestore:    return "recovery-restore";
    case MsgType::kRecoveryAck:        return "recovery-ack";
    case MsgType::kCheckpointReplicaAck: return "checkpoint-replica-ack";
    case MsgType::kRecoveryOffer:      return "recovery-offer";
    case MsgType::kRecoveryActive:     return "recovery-active";
  }
  return "unknown";
}

std::vector<std::byte> SdMessage::serialize_body() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(src_mgr));
  w.u8(static_cast<std::uint8_t>(dst_mgr));
  w.u16(static_cast<std::uint16_t>(type));
  w.program(program);
  w.u64(seq);
  w.u64(reply_to);
  w.u8(hops);
  w.blob(payload);
  return w.take();
}

Result<SdMessage> SdMessage::deserialize_body(SiteId src, SiteId dst,
                                              std::span<const std::byte> body) {
  try {
    ByteReader r(body);
    SdMessage m;
    m.src = src;
    m.dst = dst;
    m.src_mgr = static_cast<ManagerId>(r.u8());
    m.dst_mgr = static_cast<ManagerId>(r.u8());
    m.type = static_cast<MsgType>(r.u16());
    m.program = r.program();
    m.seq = r.u64();
    m.reply_to = r.u64();
    m.hops = r.u8();
    m.payload = r.blob();
    return m;
  } catch (const DecodeError& e) {
    return Status::error(ErrorCode::kCorrupt,
                         std::string("bad SDMessage body: ") + e.what());
  }
}

}  // namespace sdvm
