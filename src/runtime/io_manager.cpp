#include "runtime/io_manager.hpp"

#include "runtime/site.hpp"

namespace sdvm {

void IoManager::register_metrics(metrics::MetricsRegistry& registry) {
  registry.register_counter("io.rerouted_reads", &rerouted_reads_);
  registry.register_counter("io.rerouted_writes", &rerouted_writes_);
  registry.register_counter("io.outputs_delivered", &outputs_delivered_);
  registry.register_counter("io.outputs_deduped", &outputs_deduped_);
  registry.register_gauge("io.vfs_files", [this] {
    return static_cast<std::int64_t>(vfs_.size());
  });
}

void IoManager::output_int(ProgramId pid, std::int64_t value) {
  output_str(pid, std::to_string(value));
}

void IoManager::output_str(ProgramId pid, std::string text) {
  const ProgramInfo* info = site_.programs().find(pid);
  SiteId frontend = info != nullptr ? info->home_site : pid.home_site();
  frontend = site_.cluster().resolve_successor(frontend);

  if (frontend == site_.id()) {
    deliver_output(pid, std::move(text));
    return;
  }
  // "The I/O manager sends all output and input requests to the front end."
  ByteWriter w;
  w.str(text);
  SdMessage msg;
  msg.dst = frontend;
  msg.src_mgr = msg.dst_mgr = ManagerId::kIo;
  msg.type = MsgType::kIoOutput;
  msg.program = pid;
  msg.payload = w.take();
  (void)site_.messages().send(std::move(msg));
}

void IoManager::deliver_output(ProgramId pid, std::string line) {
  ++outputs_delivered_;
  auto& log = outputs_[pid];
  IoRecord rec;
  // Tagged with the last committed epoch: everything the program does
  // after commit E (until E+1 commits) replays from E on recovery, so
  // these are exactly the records a rollback to E must drop.
  rec.epoch = site_.crash().committed_epoch(pid);
  rec.seq = log.size();
  rec.text = line;
  log.push_back(std::move(rec));
  if (callback_) callback_(pid, line);
}

std::vector<std::string> IoManager::outputs(ProgramId pid) const {
  auto it = outputs_.find(pid);
  std::vector<std::string> lines;
  if (it == outputs_.end()) return lines;
  lines.reserve(it->second.size());
  for (const IoRecord& rec : it->second) lines.push_back(rec.text);
  return lines;
}

std::vector<IoRecord> IoManager::export_log(ProgramId pid) const {
  auto it = outputs_.find(pid);
  return it == outputs_.end() ? std::vector<IoRecord>{} : it->second;
}

void IoManager::import_log(ProgramId pid, std::vector<IoRecord> log) {
  // Taking over as frontend: the replicated log replaces whatever partial
  // view this site had (it was not the frontend before, or it is being
  // reset to the committed epoch anyway).
  outputs_[pid] = std::move(log);
}

void IoManager::on_rollback(ProgramId pid, std::uint64_t epoch) {
  auto it = outputs_.find(pid);
  if (it == outputs_.end()) return;
  auto& log = it->second;
  std::size_t before = log.size();
  std::erase_if(log, [epoch](const IoRecord& rec) {
    return rec.epoch >= epoch;
  });
  outputs_deduped_ += static_cast<std::uint64_t>(before - log.size());
  // seq stays positional: replayed lines refill the truncated tail.
  for (std::size_t i = 0; i < log.size(); ++i) log[i].seq = i;
}

void IoManager::vfs_put(const std::string& path, std::string data) {
  vfs_[path] = std::move(data);
}

Result<std::string> IoManager::vfs_get(const std::string& path) const {
  auto it = vfs_.find(path);
  if (it == vfs_.end()) {
    return Status::error(ErrorCode::kNotFound, "no file '" + path + "'");
  }
  return it->second;
}

std::pair<SiteId, std::string> IoManager::parse_path(
    const std::string& path) const {
  // "@<site>/rest" addresses another site's filesystem; the returned file
  // handle semantics of the paper (handle embeds the owner's site id) map
  // onto this textual form.
  if (!path.empty() && path[0] == '@') {
    auto slash = path.find('/');
    if (slash != std::string::npos) {
      try {
        SiteId owner = static_cast<SiteId>(
            std::stoul(path.substr(1, slash - 1)));
        return {owner, path.substr(slash + 1)};
      } catch (const std::exception&) {
        // fall through: treat as a local path
      }
    }
  }
  return {site_.id(), path};
}

Result<std::string> IoManager::file_read(const std::string& path) {
  auto [owner, rest] = parse_path(path);
  owner = site_.cluster().resolve_successor(owner);
  if (owner == site_.id()) return vfs_get(rest);

  ++rerouted_reads_;
  ByteWriter w;
  w.str(rest);
  auto reply = reroute(owner, MsgType::kFileRead, w.take());
  if (!reply.is_ok()) return reply.status();
  try {
    ByteReader rd(reply.value().payload);
    bool ok = rd.boolean();
    std::string data = rd.str();
    if (!ok) return Status::error(ErrorCode::kNotFound, data);
    return data;
  } catch (const DecodeError& e) {
    return Status::error(ErrorCode::kCorrupt, e.what());
  }
}

Status IoManager::file_write(const std::string& path, std::string data) {
  auto [owner, rest] = parse_path(path);
  owner = site_.cluster().resolve_successor(owner);
  if (owner == site_.id()) {
    vfs_put(rest, std::move(data));
    return Status::ok();
  }

  ++rerouted_writes_;
  ByteWriter w;
  w.str(rest);
  w.str(data);
  auto ack = reroute(owner, MsgType::kFileWrite, w.take());
  return ack.is_ok() ? Status::ok() : ack.status();
}

Result<SdMessage> IoManager::reroute(SiteId owner, MsgType type,
                                     std::vector<std::byte> payload) {
  // The microthread parks until the owner's reply has been dispatched.
  struct Reply : ProcessingManager::ParkCell {
    SdMessage msg;
  };
  auto cell = std::make_shared<Reply>();
  SdMessage req;
  req.dst = owner;
  req.src_mgr = req.dst_mgr = ManagerId::kIo;
  req.type = type;
  req.payload = std::move(payload);
  (void)site_.messages().request(req, [cell](Result<SdMessage> r) {
    if (!r.is_ok()) {
      cell->signal(r.status());
      return;
    }
    cell->msg = std::move(r).value();
    cell->signal(Status::ok());
  });
  if (Status st = site_.processing().park(*cell); !st.is_ok()) return st;
  return std::move(cell->msg);
}

void IoManager::handle(const SdMessage& msg) {
  switch (msg.type) {
    case MsgType::kIoOutput: {
      try {
        ByteReader r(msg.payload);
        deliver_output(msg.program, r.str());
      } catch (const DecodeError&) {
      }
      break;
    }
    case MsgType::kFileRead: {
      SdMessage reply;
      reply.src_mgr = reply.dst_mgr = ManagerId::kIo;
      reply.type = MsgType::kFileReadReply;
      ByteWriter w;
      try {
        ByteReader r(msg.payload);
        auto data = vfs_get(r.str());
        w.boolean(data.is_ok());
        w.str(data.is_ok() ? data.value() : data.status().message());
      } catch (const DecodeError&) {
        w.boolean(false);
        w.str("malformed request");
      }
      reply.payload = w.take();
      (void)site_.messages().respond(msg, std::move(reply));
      break;
    }
    case MsgType::kFileWrite: {
      try {
        ByteReader r(msg.payload);
        std::string path = r.str();
        std::string data = r.str();
        vfs_put(path, std::move(data));
      } catch (const DecodeError&) {
      }
      SdMessage ack;
      ack.src_mgr = ack.dst_mgr = ManagerId::kIo;
      ack.type = MsgType::kFileWriteAck;
      (void)site_.messages().respond(msg, std::move(ack));
      break;
    }
    default:
      SDVM_WARN(site_.tag()) << "io manager: unexpected "
                             << to_string(msg.type);
  }
}

void IoManager::drop_program(ProgramId pid) {
  // Outputs stay available on the frontend until the user collects them;
  // only the frontend keeps them, so this is a no-op elsewhere. Keep them.
  (void)pid;
}

}  // namespace sdvm
