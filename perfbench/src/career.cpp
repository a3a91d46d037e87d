#include "career.hpp"

#include <chrono>
#include <mutex>
#include <unordered_map>

#include "runtime/site.hpp"

namespace perfbench {

using sdvm::FrameEvent;

void CareerRecorder::attach(sdvm::Cluster& cluster, std::size_t index,
                            sdvm::Site& site) {
  auto buf = std::make_unique<SiteBuffer>();
  buf->cluster = &cluster;
  buf->index = index;
  buf->site = &site;
  buf->stamps.reserve(capacity_);
  buffers_.push_back(std::move(buf));
}

void CareerRecorder::set_enabled(bool on) {
  for (auto& owned : buffers_) {
    SiteBuffer* b = owned.get();
    if (!on) {
      (void)b->cluster->install_trace_hook(b->index, sdvm::FrameTraceHook{});
      continue;
    }
    const sdvm::Clock* clock = &b->site->clock();
    const std::size_t cap = capacity_;
    (void)b->cluster->install_trace_hook(
        b->index,
        [b, clock, cap](FrameEvent e, sdvm::FrameId f, sdvm::MicrothreadId) {
          if (b->stamps.size() >= cap) {
            ++b->dropped;
            return;
          }
          const sdvm::Nanos wall =
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
          b->stamps.push_back(Stamp{f.value, wall, clock->now(), e});
        });
  }
}

void CareerRecorder::drain() {
  std::vector<std::vector<Stamp>> per_site(buffers_.size());
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    SiteBuffer& b = *buffers_[i];
    std::lock_guard lk(b.site->lock());
    per_site[i] = b.stamps;
    b.stamps.clear();  // keeps the reserved capacity for the next program
  }
  fold(per_site, &Stamp::wall, on_wall);
  fold(per_site, &Stamp::site, on_site);
}

void CareerRecorder::fold(const std::vector<std::vector<Stamp>>& per_site,
                          sdvm::Nanos Stamp::*clock, Stages& into) {
  constexpr double kSec = 1e-9;
  struct OnSite {
    sdvm::Nanos created = -1, executable = -1, ready = -1, started = -1;
  };
  std::unordered_map<std::uint64_t, sdvm::Nanos> given;
  std::unordered_map<std::uint64_t, sdvm::Nanos> adopted;
  std::unordered_map<std::uint64_t, OnSite> state;
  for (const auto& stamps : per_site) {
    state.clear();  // the same-site stages pair events of one site only
    for (const Stamp& s : stamps) {
      const sdvm::Nanos t = s.*clock;
      OnSite& st = state[s.frame];
      switch (s.event) {
        case FrameEvent::kCreated:
          st.created = t;
          break;
        case FrameEvent::kBecameExecutable:
          if (st.created >= 0) into.param_wait_s.add((t - st.created) * kSec);
          st.created = -1;
          st.executable = t;
          break;
        case FrameEvent::kBecameReady:
          if (st.executable >= 0) {
            into.code_resolve_s.add((t - st.executable) * kSec);
          }
          st.executable = -1;
          st.ready = t;
          break;
        case FrameEvent::kExecutionStarted:
          if (st.ready >= 0) into.queue_wait_s.add((t - st.ready) * kSec);
          st.ready = -1;
          st.started = t;
          break;
        case FrameEvent::kConsumed:
          if (st.started >= 0) into.exec_s.add((t - st.started) * kSec);
          state.erase(s.frame);
          break;
        case FrameEvent::kGivenAway:
          given[s.frame] = t;
          state.erase(s.frame);
          break;
        case FrameEvent::kAdopted:
          adopted[s.frame] = t;
          break;
        case FrameEvent::kParamApplied:
        case FrameEvent::kCodeRequested:
          break;
      }
    }
  }
  for (const auto& [frame, t_given] : given) {
    auto it = adopted.find(frame);
    if (it != adopted.end() && it->second >= t_given) {
      into.migration_s.add((it->second - t_given) * kSec);
    }
  }
}

std::uint64_t CareerRecorder::dropped() const {
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped;
  return n;
}

namespace {

std::string quantiles_json(const Samples& s) {
  return "{\"p50\":" + json_num(s.quantile(0.5)) +
         ",\"p99\":" + json_num(s.quantile(0.99)) +
         ",\"n\":" + std::to_string(s.size()) + "}";
}

}  // namespace

void CareerRecorder::report(Report& r, std::uint64_t programs,
                            bool virtual_clock) const {
  const std::pair<const char*, const Samples*> stages[] = {
      {"param_wait", &on_wall.param_wait_s},
      {"code_resolve", &on_wall.code_resolve_s},
      {"queue_wait", &on_wall.queue_wait_s},
      {"exec", &on_wall.exec_s}};
  for (const auto& [stage, s] : stages) {
    const std::string base = std::string("frame.") + stage;
    r.set(base + "_p50_s", s->quantile(0.5), kUnitS);
    r.set(base + "_p99_s", s->quantile(0.99), kUnitS);
  }
  r.set("frame.migrations",
        static_cast<double>(on_wall.migration_s.size()) /
            static_cast<double>(programs > 0 ? programs : 1),
        kUnitCount);
  r.note("frame_migration_wall_s", quantiles_json(on_wall.migration_s));
  if (virtual_clock) {
    r.note("frame_virtual_s",
           "{\"param_wait\":" + quantiles_json(on_site.param_wait_s) +
               ",\"code_resolve\":" + quantiles_json(on_site.code_resolve_s) +
               ",\"queue_wait\":" + quantiles_json(on_site.queue_wait_s) +
               ",\"exec\":" + quantiles_json(on_site.exec_s) +
               ",\"migration\":" + quantiles_json(on_site.migration_s) + "}");
  }
  r.note("trace_stamps_dropped", std::to_string(dropped()));
}

}  // namespace perfbench
