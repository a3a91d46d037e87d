#include "runtime/program_manager.hpp"

#include <unordered_set>

#include "runtime/site.hpp"

namespace sdvm {

Result<ProgramId> ProgramManager::start_program(const ProgramSpec& spec) {
  if (spec.threads.empty()) {
    return Status::error(ErrorCode::kInvalidArgument, "program has no threads");
  }
  std::unordered_set<std::string> names;
  for (const auto& t : spec.threads) {
    if (t.name.empty() || !names.insert(t.name).second) {
      return Status::error(ErrorCode::kInvalidArgument,
                           "duplicate or empty microthread name '" + t.name +
                               "'");
    }
    if (t.source.empty() && t.native == nullptr) {
      return Status::error(ErrorCode::kInvalidArgument,
                           "microthread '" + t.name +
                               "' has neither source nor native body");
    }
  }

  ProgramInfo info;
  info.id = ProgramId(site_.id(), next_counter_++);
  info.name = spec.name;
  info.home_site = site_.id();
  for (const auto& t : spec.threads) info.thread_names.push_back(t.name);
  info.args = spec.args;

  auto entry = info.thread_by_name(spec.entry);
  if (!entry.has_value()) {
    return Status::error(ErrorCode::kNotFound,
                         "entry microthread '" + spec.entry + "' not found");
  }
  info.entry_thread = *entry;

  // Register native bodies so the code manager can resolve them locally.
  for (const auto& t : spec.threads) {
    if (t.native != nullptr) {
      NativeRegistry::instance().register_fn(spec.name, t.name, t.native);
    }
  }

  register_info(info);
  site_.code().store_sources(info, spec);

  // Fire the entry microframe with a single trigger parameter.
  FrameId f = site_.memory().create_frame(info.id, *entry, 1, /*priority=*/0);
  Status st =
      site_.memory().apply_param(f, 0, to_bytes(std::int64_t{0}));
  if (!st.is_ok()) return st;

  // Seed epoch-0 durability (persist + replicate info and sources) so the
  // program survives a home death even before the first checkpoint.
  site_.crash().on_program_started(info.id);

  SDVM_INFO(site_.tag()) << "started program '" << spec.name << "' as "
                         << info.id.value;
  return info.id;
}

void ProgramManager::store_info(ProgramId pid, const ProgramInfo& info) {
  if (infos_.insert_or_assign(pid, info).second && !terminated_.contains(pid)) {
    ++active_;
  }
}

void ProgramManager::register_info(const ProgramInfo& info) {
  store_info(info.id, info);
  auto waiting = info_pending_.extract(info.id);
  if (!waiting.empty()) {
    for (auto& cb : waiting.mapped()) cb(Status::ok());
  }
}

const ProgramInfo* ProgramManager::find(ProgramId pid) const {
  auto it = infos_.find(pid);
  return it == infos_.end() ? nullptr : &it->second;
}

void ProgramManager::ensure_known(ProgramId pid, SiteId hint,
                                  std::function<void(Status)> cb) {
  if (infos_.contains(pid)) {
    cb(Status::ok());
    return;
  }
  bool first = !info_pending_.contains(pid);
  info_pending_[pid].push_back(std::move(cb));
  if (!first) return;

  SdMessage req;
  req.dst = hint != kInvalidSite ? hint : pid.home_site();
  req.dst = site_.cluster().resolve_successor(req.dst);
  req.src_mgr = req.dst_mgr = ManagerId::kProgram;
  req.type = MsgType::kProgramInfoRequest;
  req.program = pid;
  (void)site_.messages().request(req, [this, pid](Result<SdMessage> r) {
    auto waiting = info_pending_.extract(pid);
    if (!r.is_ok()) {
      if (!waiting.empty()) {
        for (auto& w : waiting.mapped()) w(r.status());
      }
      return;
    }
    ByteReader rd(r.value().payload);
    auto info = ProgramInfo::deserialize(rd);
    if (!info.is_ok()) {
      if (!waiting.empty()) {
        for (auto& w : waiting.mapped()) w(info.status());
      }
      return;
    }
    store_info(pid, info.value());
    if (!waiting.empty()) {
      for (auto& w : waiting.mapped()) w(Status::ok());
    }
  });
}

void ProgramManager::terminate(ProgramId pid, std::int64_t exit_code) {
  const ProgramInfo* info = find(pid);
  SiteId home = info != nullptr ? info->home_site : pid.home_site();
  home = site_.cluster().resolve_successor(home);

  if (home == site_.id()) {
    if (terminated_.contains(pid)) return;
    local_terminate(pid, exit_code);
    // "Its microthreads can safely be deleted from memory" cluster-wide.
    ByteWriter w;
    w.i64(exit_code);
    SdMessage msg;
    msg.src_mgr = msg.dst_mgr = ManagerId::kProgram;
    msg.type = MsgType::kProgramTerminated;
    msg.program = pid;
    msg.payload = w.take();
    site_.messages().broadcast(msg, site_.cluster().live_sites());
  } else {
    ByteWriter w;
    w.i64(exit_code);
    SdMessage msg;
    msg.dst = home;
    msg.src_mgr = msg.dst_mgr = ManagerId::kProgram;
    msg.type = MsgType::kProgramTerminated;
    msg.program = pid;
    msg.payload = w.take();
    (void)site_.messages().send(std::move(msg));
  }
}

void ProgramManager::local_terminate(ProgramId pid, std::int64_t exit_code) {
  if (terminated_.contains(pid)) return;
  terminated_[pid] = exit_code;
  if (infos_.contains(pid)) --active_;
  site_.drop_program_everywhere(pid);
  auto waiting = waiters_.extract(pid);
  if (!waiting.empty()) {
    for (auto& cb : waiting.mapped()) cb(exit_code);
  }
  SDVM_INFO(site_.tag()) << "program " << pid.value << " terminated (code "
                         << exit_code << ")";
}

bool ProgramManager::is_terminated(ProgramId pid) const {
  return terminated_.contains(pid);
}

std::optional<std::int64_t> ProgramManager::exit_code(ProgramId pid) const {
  auto it = terminated_.find(pid);
  return it == terminated_.end() ? std::nullopt
                                 : std::optional<std::int64_t>(it->second);
}

void ProgramManager::add_waiter(ProgramId pid,
                                std::function<void(std::int64_t)> cb) {
  auto it = terminated_.find(pid);
  if (it != terminated_.end()) {
    cb(it->second);
    return;
  }
  waiters_[pid].push_back(std::move(cb));
}

std::vector<ProgramId> ProgramManager::active_programs() const {
  std::vector<ProgramId> out;
  for (const auto& [pid, info] : infos_) {
    if (!terminated_.contains(pid)) out.push_back(pid);
  }
  return out;
}

void ProgramManager::handle(const SdMessage& msg) {
  switch (msg.type) {
    case MsgType::kProgramInfoRequest: {
      SdMessage reply;
      reply.src_mgr = reply.dst_mgr = ManagerId::kProgram;
      const ProgramInfo* info = find(msg.program);
      if (info == nullptr) {
        reply.type = MsgType::kProgramInfoReply;  // empty payload = unknown
      } else {
        reply.type = MsgType::kProgramInfoReply;
        ByteWriter w;
        info->serialize(w);
        reply.payload = w.take();
      }
      (void)site_.messages().respond(msg, std::move(reply));
      break;
    }
    case MsgType::kProgramTerminated: {
      std::int64_t code = 0;
      try {
        ByteReader r(msg.payload);
        code = r.i64();
      } catch (const DecodeError&) {
      }
      const ProgramInfo* info = find(msg.program);
      SiteId home = info != nullptr ? info->home_site : msg.program.home_site();
      if (site_.cluster().resolve_successor(home) == site_.id()) {
        terminate(msg.program, code);  // we are home: rebroadcast
      } else {
        local_terminate(msg.program, code);
      }
      break;
    }
    default:
      SDVM_WARN(site_.tag()) << "program manager: unexpected "
                             << to_string(msg.type);
  }
}

}  // namespace sdvm
