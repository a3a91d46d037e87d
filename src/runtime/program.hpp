// Program model: what an SDVM application is.
//
// A program is a set of named microthreads (paper §3.1). Each microthread
// may carry MicroC source (shippable to any site, compilable on the fly)
// and/or a native C++ function registered per-process (the "platform-
// specific binary" fast path). The entry microthread is fired with one
// trigger parameter when the program starts.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/serialize.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace sdvm {

class Context;

/// Native microthread body. Runs on its site's fiber and parks only inside
/// Context calls that wait for another site; all SDVM interaction goes
/// through the Context ("the only interface between the program running on
/// the SDVM and the SDVM itself").
using NativeFn = std::function<void(Context&)>;

/// What the programmer writes: the partitioning of the application into
/// microthreads.
struct MicrothreadSpec {
  std::string name;
  std::string source;   // MicroC; empty = native-only microthread
  NativeFn native;      // optional native implementation
};

struct ProgramSpec {
  std::string name;
  std::vector<MicrothreadSpec> threads;
  std::string entry;                 // name of the first microthread
  std::vector<std::int64_t> args;    // program start arguments
};

/// Cluster-wide description of a running program, gossiped to sites that
/// encounter its frames. MicrothreadId = index into `thread_names`.
struct ProgramInfo {
  ProgramId id;
  std::string name;
  SiteId home_site = kInvalidSite;  // start site: frontend + code home
  MicrothreadId entry_thread = 0;   // fired at start (and epoch-0 recovery)
  std::vector<std::string> thread_names;
  std::vector<std::int64_t> args;

  [[nodiscard]] std::optional<MicrothreadId> thread_by_name(
      const std::string& n) const {
    for (std::size_t i = 0; i < thread_names.size(); ++i) {
      if (thread_names[i] == n) return static_cast<MicrothreadId>(i);
    }
    return std::nullopt;
  }

  void serialize(ByteWriter& w) const;
  [[nodiscard]] static Result<ProgramInfo> deserialize(ByteReader& r);
};

/// Per-process registry of native microthread implementations, keyed by
/// (program name, thread name). In a TCP cluster every daemon process
/// registers the same natives (SPMD style); in an in-process cluster one
/// registration serves all sites. Native code never crosses the network.
class NativeRegistry {
 public:
  static NativeRegistry& instance();

  void register_fn(const std::string& program_name,
                   const std::string& thread_name, NativeFn fn);
  [[nodiscard]] NativeFn find(const std::string& program_name,
                              const std::string& thread_name) const;
  void clear_program(const std::string& program_name);

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, NativeFn> fns_;
};

}  // namespace sdvm
