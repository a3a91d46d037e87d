// Code manager: "allows the automatic distribution of microthreads
// throughout the cluster" (paper §2.2, §4). Stores source and platform-
// tagged binary artifacts, answers code requests (binary first, source
// fallback), compiles source on the fly for the local platform, and
// uploads freshly compiled binaries back to the code distribution site so
// "other sites will receive the binary code at first go".
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.hpp"
#include "microc/bytecode.hpp"
#include "microc/decode.hpp"
#include "runtime/message.hpp"
#include "runtime/metrics.hpp"
#include "runtime/program.hpp"

namespace sdvm {

class Site;

/// Something the processing manager can run: exactly one of native /
/// bytecode is set. Bytecode executables also carry the verified decoded
/// form (microc/decode.hpp), produced once when the artifact enters the
/// cache so the VM's hot loop never re-validates per dispatch.
struct Executable {
  NativeFn native;
  std::shared_ptr<const microc::Program> bytecode;
  std::shared_ptr<const microc::DecodedProgram> decoded;

  [[nodiscard]] bool valid() const {
    return native != nullptr || bytecode != nullptr;
  }
};

/// Decodes and verifies `prog` into a ready-to-run Executable; fails if
/// the artifact is malformed (e.g. a corrupt upload from another site).
[[nodiscard]] Result<Executable> make_bytecode_executable(
    std::shared_ptr<const microc::Program> prog);

class CodeManager {
 public:
  explicit CodeManager(Site& site) : site_(site) {}

  /// Home-site registration: keep MicroC sources (shippable) and remember
  /// which threads exist. Native fns live in the NativeRegistry.
  void store_sources(const ProgramInfo& info, const ProgramSpec& spec);

  /// Resolves the executable for (program, thread); may go to the network.
  /// The callback runs under the site lock.
  using ExecCallback = std::function<void(Result<Executable>)>;
  void request_executable(ProgramId pid, MicrothreadId tid, ExecCallback cb);

  void handle(const SdMessage& msg);
  void drop_program(ProgramId pid);

  /// Source export/import: the crash manager replicates a program's
  /// sources alongside checkpoint snapshots, so a backup site taking over
  /// as code home can still serve (and compile) every microthread.
  [[nodiscard]] std::vector<std::pair<MicrothreadId, std::string>>
  export_sources(ProgramId pid) const;
  void import_sources(ProgramId pid,
                      const std::vector<std::pair<MicrothreadId, std::string>>&
                          sources);

  /// Registers this manager's instruments ("code." prefix).
  void register_metrics(metrics::MetricsRegistry& registry);

 private:
  // Instruments (read "code.*" through Site::introspect()).
  metrics::Counter compiles_;
  metrics::Counter binary_fetches_;
  metrics::Counter source_fetches_;
  metrics::Counter uploads_received_;
  metrics::Counter cache_hits_;      // resolve served from the local cache
  /// On-the-fly compile wall time (real nanos, both modes).
  metrics::Histogram compile_ns_;

  struct Key {
    ProgramId pid;
    MicrothreadId tid;
    auto operator<=>(const Key&) const = default;
  };

  void fetch_remote(ProgramId pid, MicrothreadId tid);
  /// Tries `targets[index]`, falling through to the next on miss/failure.
  void fetch_from(ProgramId pid, MicrothreadId tid,
                  std::shared_ptr<std::vector<SiteId>> targets,
                  std::size_t index);
  void upload_binary(ProgramId pid, MicrothreadId tid,
                     const std::shared_ptr<const microc::Program>& binary);
  void finish(const Key& key, Result<Executable> result);
  [[nodiscard]] std::optional<Executable> resolve_local(ProgramId pid,
                                                        MicrothreadId tid);

  Site& site_;
  std::map<Key, Executable> cache_;
  std::map<Key, std::string> sources_;
  // Binary artifacts per (program, thread, platform).
  std::map<std::pair<Key, PlatformId>,
           std::shared_ptr<const microc::Program>> binaries_;
  std::map<Key, std::vector<ExecCallback>> pending_;
};

}  // namespace sdvm
