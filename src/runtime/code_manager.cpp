#include "runtime/code_manager.hpp"

#include <chrono>

#include "microc/compiler.hpp"
#include "runtime/site.hpp"

namespace sdvm {

namespace {

Nanos wall_nanos_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Result<Executable> make_bytecode_executable(
    std::shared_ptr<const microc::Program> prog) {
  auto decoded = microc::decode(*prog);
  if (!decoded.is_ok()) return decoded.status();
  Executable exec;
  exec.bytecode = std::move(prog);
  exec.decoded = std::make_shared<const microc::DecodedProgram>(
      std::move(decoded).value());
  return exec;
}

void CodeManager::register_metrics(metrics::MetricsRegistry& registry) {
  registry.register_counter("code.compiles", &compiles_);
  registry.register_counter("code.binary_fetches", &binary_fetches_);
  registry.register_counter("code.source_fetches", &source_fetches_);
  registry.register_counter("code.uploads_received", &uploads_received_);
  registry.register_counter("code.cache_hits", &cache_hits_);
  registry.register_histogram("code.compile_ns", &compile_ns_);
  registry.register_gauge("code.cached_executables", [this] {
    return static_cast<std::int64_t>(cache_.size());
  });
}

void CodeManager::store_sources(const ProgramInfo& info,
                                const ProgramSpec& spec) {
  for (std::size_t i = 0; i < spec.threads.size(); ++i) {
    const auto& t = spec.threads[i];
    if (!t.source.empty()) {
      sources_[Key{info.id, static_cast<MicrothreadId>(i)}] = t.source;
    }
  }
}

std::optional<Executable> CodeManager::resolve_local(ProgramId pid,
                                                     MicrothreadId tid) {
  Key key{pid, tid};
  if (auto it = cache_.find(key); it != cache_.end()) {
    ++cache_hits_;
    return it->second;
  }

  const ProgramInfo* info = site_.programs().find(pid);
  if (info == nullptr || tid >= info->thread_names.size()) return std::nullopt;

  // 1. Native binary for this process (the platform-specific fast path).
  if (NativeFn fn = NativeRegistry::instance().find(
          info->name, info->thread_names[tid]);
      fn != nullptr) {
    Executable exec;
    exec.native = std::move(fn);
    cache_[key] = exec;
    return exec;
  }

  // 2. Local binary artifact compiled for our platform.
  if (auto it = binaries_.find({key, site_.config().platform});
      it != binaries_.end()) {
    auto exec = make_bytecode_executable(it->second);
    if (!exec.is_ok()) {
      SDVM_ERROR(site_.tag())
          << "cached binary for '" << info->thread_names[tid]
          << "' failed verification: " << exec.status().to_string();
      binaries_.erase(it);  // poisoned artifact; fall through to source
    } else {
      cache_[key] = exec.value();
      return exec.value();
    }
  }

  // 3. Local source (we are a code home): compile on the fly.
  if (auto it = sources_.find(key); it != sources_.end()) {
    auto started = std::chrono::steady_clock::now();
    auto compiled =
        microc::compile(it->second, info->thread_names[tid]);
    compile_ns_.record(wall_nanos_since(started));
    if (!compiled.is_ok()) {
      SDVM_ERROR(site_.tag())
          << "compile of '" << info->thread_names[tid]
          << "' failed: " << compiled.status().to_string();
      return std::nullopt;
    }
    ++compiles_;
    site_.sim_charge(static_cast<Nanos>(it->second.size()) *
                     site_.config().sim_nanos_per_compiled_byte);
    auto prog = std::make_shared<const microc::Program>(
        std::move(compiled).value());
    binaries_[{key, site_.config().platform}] = prog;
    // Our own compiler's output always verifies.
    auto exec = make_bytecode_executable(std::move(prog));
    if (!exec.is_ok()) return std::nullopt;
    cache_[key] = exec.value();
    return exec.value();
  }
  return std::nullopt;
}

void CodeManager::request_executable(ProgramId pid, MicrothreadId tid,
                                     ExecCallback cb) {
  if (auto local = resolve_local(pid, tid); local.has_value()) {
    cb(*local);
    return;
  }
  Key key{pid, tid};
  bool first = !pending_.contains(key);
  pending_[key].push_back(std::move(cb));
  if (first) fetch_remote(pid, tid);
}

void CodeManager::fetch_remote(ProgramId pid, MicrothreadId tid) {
  const ProgramInfo* info = site_.programs().find(pid);
  Key key{pid, tid};
  if (info == nullptr) {
    finish(key, Status::error(ErrorCode::kNotFound, "unknown program"));
    return;
  }
  // Target order: a nearby code distribution site first ("useful to e.g.
  // supply subclusters with microthreads fast"), then the program's home
  // site, which "is implicitly a code distribution site".
  auto targets = std::make_shared<std::vector<SiteId>>();
  for (SiteId sid : site_.cluster().code_distribution_sites()) {
    if (sid != site_.id()) targets->push_back(sid);
  }
  SiteId home = site_.cluster().resolve_successor(info->home_site);
  if (std::find(targets->begin(), targets->end(), home) == targets->end()) {
    targets->push_back(home);
  }
  // Last resort: every other live member. After a crash-recovery the home
  // recorded in our ProgramInfo may be stale (the takeover site only
  // broadcasts the re-homed info to sites alive at that moment), but any
  // site that ever compiled the thread serves it from its source cache.
  for (SiteId sid : site_.cluster().live_sites()) {
    if (std::find(targets->begin(), targets->end(), sid) == targets->end()) {
      targets->push_back(sid);
    }
  }
  std::erase(*targets, site_.id());
  if (targets->empty()) {
    finish(key, Status::error(ErrorCode::kNotFound,
                              "no code for microthread anywhere"));
    return;
  }
  fetch_from(pid, tid, targets, 0);
}

void CodeManager::fetch_from(ProgramId pid, MicrothreadId tid,
                             std::shared_ptr<std::vector<SiteId>> targets,
                             std::size_t index) {
  Key key{pid, tid};
  if (index >= targets->size()) {
    finish(key, Status::error(ErrorCode::kNotFound,
                              "no code for microthread anywhere"));
    return;
  }

  ByteWriter w;
  w.u32(tid);
  w.str(site_.config().platform);
  SdMessage req;
  req.dst = (*targets)[index];
  req.src_mgr = req.dst_mgr = ManagerId::kCode;
  req.type = MsgType::kCodeRequest;
  req.program = pid;
  req.payload = w.take();

  (void)site_.messages().request(req, [this, pid, tid, key, targets,
                                       index](Result<SdMessage> r) {
    if (!r.is_ok()) {
      fetch_from(pid, tid, targets, index + 1);
      return;
    }
    const SdMessage& reply = r.value();
    const ProgramInfo* pinfo = site_.programs().find(pid);
    if (pinfo == nullptr) {
      finish(key, Status::error(ErrorCode::kNotFound, "program vanished"));
      return;
    }
    switch (reply.type) {
      case MsgType::kCodeReplyBinary: {
        auto prog = microc::Program::deserialize(reply.payload);
        if (!prog.is_ok()) {
          finish(key, prog.status());
          return;
        }
        ++binary_fetches_;
        auto shared = std::make_shared<const microc::Program>(
            std::move(prog).value());
        auto exec = make_bytecode_executable(shared);
        if (!exec.is_ok()) {
          // Artifact deserialized but failed verification: don't cache it;
          // a later target (or source fallback) may still serve us.
          fetch_from(pid, tid, targets, index + 1);
          return;
        }
        binaries_[{key, site_.config().platform}] = shared;
        cache_[key] = exec.value();
        finish(key, exec.value());
        break;
      }
      case MsgType::kCodeReplySource: {
        // "If the microthread is not available in the new site's platform
        // specific binary format, it will receive the source code ... and
        // compile it on the fly."
        ++source_fetches_;
        ByteReader rd(reply.payload);
        std::string source;
        try {
          source = rd.str();
        } catch (const DecodeError& e) {
          finish(key, Status::error(ErrorCode::kCorrupt, e.what()));
          return;
        }
        sources_[key] = source;
        auto started = std::chrono::steady_clock::now();
        auto compiled =
            microc::compile(source, pinfo->thread_names[tid]);
        compile_ns_.record(wall_nanos_since(started));
        if (!compiled.is_ok()) {
          finish(key, compiled.status());
          return;
        }
        ++compiles_;
        site_.sim_charge(static_cast<Nanos>(source.size()) *
                         site_.config().sim_nanos_per_compiled_byte);
        auto shared = std::make_shared<const microc::Program>(
            std::move(compiled).value());
        binaries_[{key, site_.config().platform}] = shared;
        auto exec = make_bytecode_executable(shared);
        if (!exec.is_ok()) {
          finish(key, exec.status());
          return;
        }
        cache_[key] = exec.value();
        finish(key, exec.value());

        // Upload the fresh binary "so that other sites will receive the
        // binary code at first go".
        upload_binary(pid, tid, shared);
        break;
      }
      default:
        // kCodeReplyMissing (or anything unexpected): this target cannot
        // serve the thread, but a later one still may.
        fetch_from(pid, tid, targets, index + 1);
    }
  });
}

void CodeManager::upload_binary(
    ProgramId pid, MicrothreadId tid,
    const std::shared_ptr<const microc::Program>& binary) {
  const ProgramInfo* info = site_.programs().find(pid);
  if (info == nullptr) return;
  // Distribution set: the home site plus every advertised code
  // distribution site ("bound to store every microthread").
  std::vector<SiteId> targets = site_.cluster().code_distribution_sites();
  SiteId home = site_.cluster().resolve_successor(info->home_site);
  if (std::find(targets.begin(), targets.end(), home) == targets.end()) {
    targets.push_back(home);
  }

  ByteWriter w;
  w.u32(tid);
  w.str(site_.config().platform);
  w.blob(binary->serialize());
  SdMessage up;
  up.src_mgr = up.dst_mgr = ManagerId::kCode;
  up.type = MsgType::kCodeUpload;
  up.program = pid;
  up.payload = w.take();
  site_.messages().broadcast(up, targets);
}

void CodeManager::finish(const Key& key, Result<Executable> result) {
  auto node = pending_.extract(key);
  if (node.empty()) return;
  for (auto& cb : node.mapped()) cb(result);
}

void CodeManager::handle(const SdMessage& msg) {
  switch (msg.type) {
    case MsgType::kCodeRequest: {
      MicrothreadId tid = 0;
      PlatformId platform;
      try {
        ByteReader r(msg.payload);
        tid = r.u32();
        platform = r.str();
      } catch (const DecodeError&) {
        break;
      }
      Key key{msg.program, tid};
      SdMessage reply;
      reply.src_mgr = reply.dst_mgr = ManagerId::kCode;
      if (auto it = binaries_.find({key, platform}); it != binaries_.end()) {
        reply.type = MsgType::kCodeReplyBinary;
        reply.payload = it->second->serialize();
      } else if (auto src = sources_.find(key); src != sources_.end()) {
        reply.type = MsgType::kCodeReplySource;
        ByteWriter w;
        w.str(src->second);
        reply.payload = w.take();
      } else {
        reply.type = MsgType::kCodeReplyMissing;
      }
      (void)site_.messages().respond(msg, std::move(reply));
      break;
    }
    case MsgType::kCodeUpload: {
      try {
        ByteReader r(msg.payload);
        MicrothreadId tid = r.u32();
        PlatformId platform = r.str();
        auto blob = r.blob();
        auto prog = microc::Program::deserialize(blob);
        if (prog.is_ok()) {
          ++uploads_received_;
          binaries_[{Key{msg.program, tid}, platform}] =
              std::make_shared<const microc::Program>(std::move(prog).value());
        }
      } catch (const DecodeError&) {
      }
      break;
    }
    default:
      SDVM_WARN(site_.tag()) << "code manager: unexpected "
                             << to_string(msg.type);
  }
}

std::vector<std::pair<MicrothreadId, std::string>> CodeManager::export_sources(
    ProgramId pid) const {
  std::vector<std::pair<MicrothreadId, std::string>> out;
  for (const auto& [key, src] : sources_) {
    if (key.pid == pid) out.emplace_back(key.tid, src);
  }
  return out;
}

void CodeManager::import_sources(
    ProgramId pid,
    const std::vector<std::pair<MicrothreadId, std::string>>& sources) {
  for (const auto& [tid, src] : sources) {
    sources_.emplace(Key{pid, tid}, src);
  }
}

void CodeManager::drop_program(ProgramId pid) {
  std::erase_if(cache_, [&](const auto& kv) { return kv.first.pid == pid; });
  std::erase_if(sources_, [&](const auto& kv) { return kv.first.pid == pid; });
  std::erase_if(binaries_,
                [&](const auto& kv) { return kv.first.first.pid == pid; });
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->first.pid == pid) {
      for (auto& cb : it->second) {
        cb(Status::error(ErrorCode::kNotFound, "program terminated"));
      }
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace sdvm
