// SDMessage: the unit of inter-site communication. "All communication is
// done between managers only, so a message contains the source's and the
// target's site ids and manager ids apart from other administrational
// information and the payload data itself" (paper §4).
//
// Wire layout: [version u8 | flags u8 | src u32 | dst u32 | body]. When the
// security manager is active the body is sealed (ChaCha20-Poly1305) with the
// key of the direction src -> dst; src/dst stay cleartext, authenticated
// with the body, so the receiver can select the key — exactly the
// structure of Figure 6.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/serialize.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace sdvm {

enum class MsgType : std::uint16_t {
  kInvalid = 0,

  // --- cluster manager ---
  kSignOnRequest = 10,   // new site asks to join (addr, platform, speed)
  kSignOnReply,          // assigned logical id + cluster list snapshot
  kSignOffNotice,        // graceful departure: departing id + successor
  kSiteGossip,           // propagation of site infos "by and by"
  kHeartbeat,            // liveness + load statistics
  kIdBlockRequest,       // contingent strategy: request a block of free ids
  kIdBlockReply,
  kSiteDead,             // failure detector verdict, gossiped

  // --- scheduling manager ---
  kHelpRequest = 30,     // idle site asks for work
  kHelpReplyFrame,       // an executable microframe (LIFO end by default)
  kHelpReplyNone,        // "can't help"

  // --- code manager ---
  kCodeRequest = 40,     // (program, thread, platform)
  kCodeReplyBinary,      // platform-tagged bytecode artifact
  kCodeReplySource,      // MicroC source fallback → compile on the fly
  kCodeReplyMissing,
  kCodeUpload,           // freshly compiled binary pushed to a code site

  // --- program manager ---
  kProgramInfoRequest = 50,
  kProgramInfoReply,
  kProgramTerminated,    // broadcast: program done, free its resources

  // --- attraction memory ---
  kApplyParam = 60,      // microthread result → waiting microframe slot
  kApplyParamNack,       // frame unknown here (moved/consumed): error path
  kObjectRequest,        // to homesite: migrate object to requester
  kObjectGrant,          // homesite → requester: object content
  kObjectRecall,         // homesite → current owner: send object back
  kObjectReturn,         // owner → homesite
  kObjectMiss,           // no such object
  kDirectoryImport,      // sign-off: successor absorbs directory + objects
  // --- attraction memory: sharded directory (value block after crash) ---
  kShardLease = 110,     // lease announcements: (shard, holder, epoch) batch
  kShardHandoff,         // graceful shard transfer: entries + new epoch
  kShardRecover,         // crash successor asks sites to re-register a shard
  kShardRecoverReply,    // per-site contribution to a shard rebuild
  kShardRegister,        // allocator → shard holder: new directory entry
  kShardStale,           // routed request hit a non-authoritative site

  // --- io manager ---
  kIoOutput = 70,        // routed to the program's frontend site
  kFileRead,             // global file handles: access rerouted to owner
  kFileReadReply,
  kFileWrite,
  kFileWriteAck,

  // --- site manager ---
  kMetricsQuery = 82,    // introspection: ask for a full SiteStatus
  kMetricsReply,         // serialized SiteStatus snapshot

  // --- crash manager ---
  kCheckpointFreeze = 90,  // coordinator → sites: quiesce program
  kCheckpointFrozen,       // site → coordinator: I am quiesced
  kCheckpointTakeShard,    // coordinator → sites: drain over, snapshot now
  kCheckpointData,         // site → coordinator: frozen frames + memory
  kCheckpointCommit,       // coordinator → sites: epoch committed, resume
  kCheckpointReplica,      // coordinator → replica holder: snapshot copy
  kRecoveryRestore,        // coordinator → sites: reset program, take shard
  kRecoveryAck,
  kCheckpointReplicaAck,   // holder → coordinator: replica persisted
  kRecoveryOffer,          // restarted site: I hold (program, epoch) on disk
  kRecoveryActive,         // live home → offerer: stand down (+terminated?)
};

[[nodiscard]] const char* to_string(MsgType t);

struct SdMessage {
  SiteId src = kInvalidSite;
  SiteId dst = kInvalidSite;
  ManagerId src_mgr = ManagerId::kMessage;
  ManagerId dst_mgr = ManagerId::kMessage;
  MsgType type = MsgType::kInvalid;
  ProgramId program;          // kInvalid when not program-scoped
  std::uint64_t seq = 0;      // sender-unique, for request/reply pairing
  std::uint64_t reply_to = 0; // seq of the request this answers (0 = none)
  std::uint8_t hops = 0;      // times forwarded by a departed site (capped)
  std::vector<std::byte> payload;

  /// Serializes the body (everything after src/dst). The message manager
  /// composes the full wire frame, optionally sealing the body.
  [[nodiscard]] std::vector<std::byte> serialize_body() const;
  [[nodiscard]] static Result<SdMessage> deserialize_body(
      SiteId src, SiteId dst, std::span<const std::byte> body);
};

}  // namespace sdvm
