// I/O manager (paper §4): "offers the functionality to access disk files
// and communicate with the user". Program output is routed to the
// program's frontend (its home site); files get global handles containing
// the owning site's id, and access from any site is rerouted there.
//
// Files live in a per-site virtual filesystem (an in-memory map the host
// application seeds), keeping tests hermetic; paths of the form
// "@<site>/rest" address another site's VFS explicitly.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "runtime/checkpoint_store.hpp"
#include "runtime/message.hpp"
#include "runtime/metrics.hpp"

namespace sdvm {

class Site;

class IoManager {
 public:
  explicit IoManager(Site& site) : site_(site) {}

  // --- program output ------------------------------------------------------
  /// Called from a running microthread; routes to the frontend site.
  void output_int(ProgramId pid, std::int64_t value);
  void output_str(ProgramId pid, std::string text);

  /// Frontend side: collected output lines, in arrival order.
  [[nodiscard]] std::vector<std::string> outputs(ProgramId pid) const;
  /// The raw tagged records (tests and checkpoint export).
  [[nodiscard]] std::vector<IoRecord> export_log(ProgramId pid) const;
  /// New frontend after a home takeover: installs the replicated log so
  /// pre-crash output survives and replayed lines dedupe against it.
  void import_log(ProgramId pid, std::vector<IoRecord> log);
  /// Recovery to `epoch`: drops records tagged >= epoch — replay from that
  /// epoch regenerates exactly those lines, so output lands exactly once.
  void on_rollback(ProgramId pid, std::uint64_t epoch);
  /// Optional live hook (e.g. the API surfaces this to the user).
  using OutputCallback = std::function<void(ProgramId, const std::string&)>;
  void set_output_callback(OutputCallback cb) { callback_ = std::move(cb); }

  // --- virtual filesystem -----------------------------------------------------
  void vfs_put(const std::string& path, std::string data);
  [[nodiscard]] Result<std::string> vfs_get(const std::string& path) const;

  /// Wait cell for rerouted file access; the worker parks on it outside
  /// the site lock (same pattern as attraction-memory fetches).
  struct IoWait {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    Status status;
    std::string data;

    void wait() {
      std::unique_lock lk(m);
      cv.wait(lk, [this] { return done; });
    }
    void signal(Status st, std::string d = {}) {
      {
        std::lock_guard lk(m);
        done = true;
        status = std::move(st);
        data = std::move(d);
      }
      cv.notify_all();
    }
  };

  /// File access from a microthread, called under the site lock.
  /// "@<site>/path" reroutes to that site; plain paths are local. When the
  /// target is remote, *wait is set and the caller parks on it.
  Result<std::string> try_file_read(const std::string& path,
                                    std::shared_ptr<IoWait>* wait);
  Status try_file_write(const std::string& path, std::string data,
                        std::shared_ptr<IoWait>* wait);

  /// Sim-mode oracle: resolves remote file access synchronously against
  /// the owner's VFS (the simulator has the global view) and returns the
  /// modeled stall, which is charged to the running microthread. Without
  /// it, a remote access would park the one simulator thread forever.
  struct SimFileResult {
    Status status;
    std::string data;
    Nanos stall = 0;
  };
  using SimFileHook = std::function<SimFileResult(
      SiteId owner, const std::string& path, bool write, std::string data)>;
  void set_sim_file_hook(SimFileHook hook) { sim_file_ = std::move(hook); }

  void handle(const SdMessage& msg);
  void drop_program(ProgramId pid);

  /// Registers this manager's instruments ("io." prefix).
  void register_metrics(metrics::MetricsRegistry& registry);

 private:
  // Instruments (read "io.*" through Site::introspect()).
  metrics::Counter rerouted_reads_;
  metrics::Counter rerouted_writes_;
  metrics::Counter outputs_delivered_;  // lines landed at the frontend
  metrics::Counter outputs_deduped_;    // replayed lines dropped on rollback

  /// Splits "@3/data.txt" into (3, "data.txt"); plain paths → local id.
  [[nodiscard]] std::pair<SiteId, std::string> parse_path(
      const std::string& path) const;
  void deliver_output(ProgramId pid, std::string line);

  Site& site_;
  std::map<ProgramId, std::vector<IoRecord>> outputs_;
  std::map<std::string, std::string> vfs_;
  OutputCallback callback_;
  SimFileHook sim_file_;
};

}  // namespace sdvm
