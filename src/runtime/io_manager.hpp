// I/O manager (paper §4): "offers the functionality to access disk files
// and communicate with the user". Program output is routed to the
// program's frontend (its home site); files get global handles containing
// the owning site's id, and access from any site is rerouted there.
//
// Files live in a per-site virtual filesystem (an in-memory map the host
// application seeds), keeping tests hermetic; paths of the form
// "@<site>/rest" address another site's VFS explicitly.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "runtime/checkpoint_store.hpp"
#include "runtime/message.hpp"
#include "runtime/metrics.hpp"
#include "runtime/processing_manager.hpp"

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

  /// File access from a running microthread. "@<site>/path" reroutes to
  /// that site, parking the microthread until the reply lands; plain paths
  /// are local.
  Result<std::string> file_read(const std::string& path);
  Status file_write(const std::string& path, std::string data);

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
  /// Sends a file request to `owner` and parks until its reply.
  Result<SdMessage> reroute(SiteId owner, MsgType type,
                            std::vector<std::byte> payload);

  Site& site_;
  std::map<ProgramId, std::vector<IoRecord>> outputs_;
  std::map<std::string, std::string> vfs_;
  OutputCallback callback_;
};

}  // namespace sdvm
