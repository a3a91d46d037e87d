#include "runtime/scheduling_manager.hpp"

#include <algorithm>

#include "runtime/site.hpp"

namespace sdvm {

void SchedulingManager::register_metrics(metrics::MetricsRegistry& registry) {
  registry.register_counter("sched.help_requests_sent", &help_requests_sent_);
  registry.register_counter("sched.help_frames_given", &help_frames_given_);
  registry.register_counter("sched.help_frames_received",
                            &help_frames_received_);
  registry.register_counter("sched.cant_help_received", &cant_help_received_);
  registry.register_counter("sched.frames_enqueued", &frames_enqueued_);
  registry.register_counter("sched.starvation_events", &starvation_events_);
  registry.register_gauge("sched.executable_depth", [this] {
    return static_cast<std::int64_t>(executable_.size());
  });
  registry.register_gauge("sched.ready_depth", [this] {
    return static_cast<std::int64_t>(ready_.size());
  });
}

void SchedulingManager::on_executable(Microframe frame) {
  ProgramId pid = frame.program;
  MicrothreadId tid = frame.thread;
  FrameId id = frame.id;
  ++frames_enqueued_;
  executable_.push_back(std::move(frame));

  if (!code_pending_.insert(id.value).second) return;
  site_.trace(FrameEvent::kCodeRequested, id, tid);

  // The program may be unknown here (frame arrived from another site);
  // resolve its description first, then the code.
  site_.programs().ensure_known(pid, id.home_site(), [this, pid, tid,
                                                      id](Status st) {
    if (!st.is_ok()) {
      on_code_ready(id, st);
      return;
    }
    site_.code().request_executable(
        pid, tid, [this, id](Result<Executable> r) { on_code_ready(id, r); });
  });
}

void SchedulingManager::on_code_ready(FrameId id, Result<Executable> exec) {
  code_pending_.erase(id.value);
  auto it = std::find_if(executable_.begin(), executable_.end(),
                         [&](const Microframe& f) { return f.id == id; });
  if (it == executable_.end()) return;  // shipped away meanwhile

  if (!exec.is_ok()) {
    // Transient failures happen around crashes (the code home died and its
    // backup hasn't taken over yet). Retry before condemning the program.
    int attempts = ++code_retry_[id.value];
    if (attempts <= kMaxCodeRetries) {
      SDVM_WARN(site_.tag()) << "code for frame " << id.value
                             << " unavailable (" << exec.status().to_string()
                             << "), retry " << attempts;
      ProgramId pid = it->program;
      MicrothreadId tid = it->thread;
      site_.schedule_after(site_.config().help_retry_interval * 10,
                           [this, pid, tid, id] {
        auto still = std::find_if(
            executable_.begin(), executable_.end(),
            [&](const Microframe& f) { return f.id == id; });
        if (still == executable_.end()) return;
        if (!code_pending_.insert(id.value).second) return;
        site_.programs().ensure_known(pid, pid.home_site(),
                                      [this, pid, tid, id](Status st) {
          if (!st.is_ok()) {
            on_code_ready(id, st);
            return;
          }
          site_.code().request_executable(
              pid, tid,
              [this, id](Result<Executable> r) { on_code_ready(id, r); });
        });
      });
      return;
    }
    SDVM_ERROR(site_.tag()) << "no code for frame " << id.value << ": "
                            << exec.status().to_string()
                            << " — failing its program";
    code_retry_.erase(id.value);
    ProgramId pid = it->program;
    executable_.erase(it);
    site_.programs().terminate(pid, /*exit_code=*/-1);
    return;
  }
  code_retry_.erase(id.value);

  ReadyWork work;
  work.frame = std::move(*it);
  work.exec = std::move(exec).value();
  executable_.erase(it);
  site_.trace(FrameEvent::kBecameReady, work.frame.id, work.frame.thread);
  ready_.push_back(std::move(work));
  site_.driver().request_wakeup(0);
}

std::optional<ReadyWork> SchedulingManager::take_ready() {
  if (frozen_ || ready_.empty()) return std::nullopt;
  ReadyWork work;
  switch (site_.config().local_sched) {
    case LocalSchedPolicy::kFifo:
      work = std::move(ready_.front());
      ready_.pop_front();
      break;
    case LocalSchedPolicy::kLifo:
      work = std::move(ready_.back());
      ready_.pop_back();
      break;
    case LocalSchedPolicy::kPriority: {
      auto it = std::max_element(ready_.begin(), ready_.end(),
                                 [](const ReadyWork& a, const ReadyWork& b) {
                                   return a.frame.priority < b.frame.priority;
                                 });
      work = std::move(*it);
      ready_.erase(it);
      break;
    }
  }
  return work;
}

std::optional<Microframe> SchedulingManager::pick_frame_to_give() {
  // Keep at least one unit of work for ourselves unless we're busy anyway.
  std::size_t total = queued_total();
  bool busy = !site_.processing().idle();
  if (total == 0 || (total == 1 && !busy)) return std::nullopt;

  // Prefer frames whose code we haven't resolved yet (cheapest to move).
  if (!executable_.empty()) {
    Microframe f;
    if (site_.config().help_reply == HelpReplyPolicy::kLifo) {
      f = std::move(executable_.back());
      executable_.pop_back();
    } else {
      f = std::move(executable_.front());
      executable_.pop_front();
    }
    code_pending_.erase(f.id.value);  // cancel interest; callback will no-op
    return f;
  }
  if (!ready_.empty()) {
    ReadyWork w;
    if (site_.config().help_reply == HelpReplyPolicy::kLifo) {
      w = std::move(ready_.back());
      ready_.pop_back();
    } else {
      w = std::move(ready_.front());
      ready_.pop_front();
    }
    return std::move(w.frame);
  }
  return std::nullopt;
}

void SchedulingManager::on_starving() {
  if (frozen_ || help_in_flight_) return;
  Nanos now = site_.clock().now();
  if (last_help_request_ >= 0 &&
      now - last_help_request_ < site_.config().help_retry_interval) {
    return;
  }
  auto target = site_.cluster().pick_help_target(help_excluded_);
  if (!target.has_value()) {
    ++starvation_events_;
    help_excluded_.clear();  // every peer said no; start over next round
    return;
  }

  last_help_request_ = now;
  help_in_flight_ = true;
  ++help_requests_sent_;

  // Piggyback our SiteInfo so the target learns about us ("A's id and
  // status information is then propagated ... by and by").
  site_.cluster().refresh_local_info();
  ByteWriter w;
  site_.cluster().local_info().serialize(w);

  SdMessage req;
  req.dst = *target;
  req.src_mgr = req.dst_mgr = ManagerId::kScheduling;
  req.type = MsgType::kHelpRequest;
  req.payload = w.take();

  (void)site_.messages().request(req, [this, target =
                                           *target](Result<SdMessage> r) {
    help_in_flight_ = false;
    if (!r.is_ok()) {
      help_excluded_.push_back(target);
      schedule_retry();
      return;
    }
    const SdMessage& reply = r.value();
    if (reply.type == MsgType::kHelpReplyNone) {
      ++cant_help_received_;
      help_excluded_.push_back(target);
      schedule_retry();
      return;
    }
    if (reply.type != MsgType::kHelpReplyFrame) return;
    help_excluded_.clear();
    try {
      ByteReader rd(reply.payload);
      bool has_info = rd.boolean();
      if (has_info) {
        auto info = ProgramInfo::deserialize(rd);
        if (info.is_ok() &&
            site_.programs().find(info.value().id) == nullptr) {
          site_.programs().register_info(info.value());
        }
      }
      auto frame = Microframe::deserialize(rd);
      if (!frame.is_ok()) return;
      ++help_frames_received_;
      site_.memory().adopt_frame(std::move(frame).value());
    } catch (const DecodeError&) {
    }
  });

  // Lost-reply safety net: if the target never answers (e.g. it died), we
  // must not stay starving forever.
  site_.schedule_after(site_.config().help_retry_interval * 8, [this] {
    if (help_in_flight_ &&
        site_.clock().now() - last_help_request_ >=
            site_.config().help_retry_interval * 8) {
      help_in_flight_ = false;
      site_.check_starvation();
    }
  });
}

void SchedulingManager::schedule_retry() {
  site_.schedule_after(site_.config().help_retry_interval,
                       [this] { site_.check_starvation(); });
}

void SchedulingManager::handle(const SdMessage& msg) {
  switch (msg.type) {
    case MsgType::kHelpRequest: {
      try {
        ByteReader r(msg.payload);
        auto info = SiteInfo::deserialize(r);
        if (info.is_ok()) site_.cluster().merge(std::move(info).value());
      } catch (const DecodeError&) {
      }

      auto frame = frozen_ ? std::nullopt : pick_frame_to_give();
      SdMessage reply;
      reply.src_mgr = reply.dst_mgr = ManagerId::kScheduling;
      if (!frame.has_value()) {
        reply.type = MsgType::kHelpReplyNone;
      } else {
        ++help_frames_given_;
        site_.trace(FrameEvent::kGivenAway, frame->id, frame->thread);
        reply.type = MsgType::kHelpReplyFrame;
        reply.program = frame->program;
        ByteWriter w;
        const ProgramInfo* info = site_.programs().find(frame->program);
        w.boolean(info != nullptr);
        if (info != nullptr) info->serialize(w);
        frame->serialize(w);
        reply.payload = w.take();
      }
      (void)site_.messages().respond(msg, std::move(reply));
      break;
    }
    case MsgType::kHelpReplyFrame: {
      // Unsolicited: a reply given to a site that signed off before it
      // arrived, relayed here by the departed site's pump. Adopt the frame
      // — it was already removed from the giver's queues.
      try {
        ByteReader rd(msg.payload);
        bool has_info = rd.boolean();
        if (has_info) {
          auto info = ProgramInfo::deserialize(rd);
          if (info.is_ok() &&
              site_.programs().find(info.value().id) == nullptr) {
            site_.programs().register_info(info.value());
          }
        }
        auto frame = Microframe::deserialize(rd);
        if (frame.is_ok()) {
          ++help_frames_received_;
          site_.memory().adopt_frame(std::move(frame).value());
        }
      } catch (const DecodeError&) {
      }
      break;
    }
    case MsgType::kHelpReplyNone:
      break;  // relayed "can't help" for a departed site: nothing to do
    default:
      SDVM_WARN(site_.tag()) << "scheduling manager: unexpected "
                             << to_string(msg.type);
  }
}

void SchedulingManager::drop_program(ProgramId pid) {
  clear_program_frames(pid);
}

std::vector<Microframe> SchedulingManager::snapshot_frames(
    ProgramId pid) const {
  bool all = !pid.valid();
  std::vector<Microframe> out;
  for (const auto& f : executable_) {
    if (all || f.program == pid) out.push_back(f);
  }
  for (const auto& w : ready_) {
    if (all || w.frame.program == pid) out.push_back(w.frame);
  }
  return out;
}

void SchedulingManager::clear_program_frames(ProgramId pid) {
  bool all = !pid.valid();
  std::erase_if(executable_, [&](const Microframe& f) {
    return all || f.program == pid;
  });
  std::erase_if(ready_, [&](const ReadyWork& w) {
    return all || w.frame.program == pid;
  });
}

}  // namespace sdvm
