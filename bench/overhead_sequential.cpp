// Experiment O1 (paper §5, citing [5]): "the overhead generated by using
// the SDVM (in comparison to a stand-alone sequential program) appears to
// be about 3%".
//
// Two measurements feed that claim:
//
//  A. Interpretation overhead — identical kernels implemented natively in
//     C++ and in MicroC, timed head-to-head on the same bytecode:
//        legacy  byte-walking checked interpreter (the pre-refactor VM,
//                the baseline)
//        direct  verified decode + direct-threaded dispatch (what the
//                runtime ships)
//     Results land in BENCH_overhead.json with per-kernel multipliers.
//
//  B. Runtime machinery overhead — the same program run through a full
//     single-site SDVM with one executor slot vs a minimal sequential
//     worklist over identical bytecode. Both sides run one microthread at
//     a time, so the gap is scheduling/bookkeeping, the thing the paper
//     accounted as "about 3%". proc.runtime_ns / proc.vm_dispatch_ns from
//     the site metrics split microthread wall time into VM-loop time vs
//     dispatch machinery.
//
// Flags: --smoke (small sizes, for CI), --out FILE (default
// BENCH_overhead.json in the working directory).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/local_cluster.hpp"
#include "apps/primes.hpp"
#include "microc/compiler.hpp"
#include "microc/vm.hpp"

namespace {

using namespace sdvm;

// --- Section A: interpretation overhead vs native C++ -----------------------

/// Host for standalone kernels: param(0) is the kernel size, outputs are
/// collected for cross-checking against the native result.
class KernelHost : public microc::IntrinsicHandler {
 public:
  explicit KernelHost(std::int64_t n) : n_(n) {}
  std::vector<std::int64_t> outputs;

  std::int64_t param(std::int64_t) override { return n_; }
  std::int64_t num_params() override { return 1; }
  std::int64_t spawn(const std::string&, std::int64_t) override { return 0; }
  void send(std::int64_t, std::int64_t, std::int64_t) override {}
  std::int64_t alloc(std::int64_t n) override {
    std::int64_t a = next_addr_++;
    heap_[a].assign(static_cast<std::size_t>(n), 0);
    return a;
  }
  std::int64_t load(std::int64_t a, std::int64_t i) override {
    return heap_.at(a).at(static_cast<std::size_t>(i));
  }
  void store(std::int64_t a, std::int64_t i, std::int64_t v) override {
    heap_.at(a).at(static_cast<std::size_t>(i)) = v;
  }
  void out(std::int64_t v) override { outputs.push_back(v); }
  void out_str(const std::string&) override {}
  void charge(std::int64_t) override {}
  std::int64_t self_site() override { return 0; }
  std::int64_t arg(std::int64_t) override { return 0; }
  std::int64_t num_args() override { return 0; }
  void exit_program(std::int64_t) override {}

 private:
  std::int64_t n_;
  std::map<std::int64_t, std::vector<std::int64_t>> heap_;
  std::int64_t next_addr_ = 1;
};

struct Kernel {
  const char* name;
  const char* source;                          // MicroC, n = param(0)
  std::function<std::int64_t(std::int64_t)> native;
  std::int64_t n_full;
  std::int64_t n_smoke;
};

const Kernel kKernels[] = {
    {"primes",
     "var n = param(0); var c = 0; var i = 2;\n"
     "while (i < n) {\n"
     "  var p = 1; var d = 2;\n"
     "  while (d * d <= i) { if (i % d == 0) { p = 0; break; } d = d + 1; }\n"
     "  if (p) { c = c + 1; }\n"
     "  i = i + 1;\n"
     "}\n"
     "out(c);",
     [](std::int64_t n) {
       std::int64_t c = 0;
       for (std::int64_t i = 2; i < n; ++i) {
         bool p = true;
         for (std::int64_t d = 2; d * d <= i; ++d) {
           if (i % d == 0) { p = false; break; }
         }
         if (p) ++c;
       }
       return c;
     },
     60'000, 4'000},
    {"sumloop",
     "var n = param(0); var s = 0;\n"
     "for (var i = 1; i <= n; i = i + 1) { s = s + i * i - (s >> 7); }\n"
     "out(s);",
     [](std::int64_t n) {
       std::int64_t s = 0;
       for (std::int64_t i = 1; i <= n; ++i) {
         s = static_cast<std::int64_t>(
             static_cast<std::uint64_t>(s) +
             static_cast<std::uint64_t>(i) * static_cast<std::uint64_t>(i) -
             static_cast<std::uint64_t>(s >> 7));
       }
       return s;
     },
     8'000'000, 300'000},
    {"bitmix",
     "var n = param(0); var x = 88172645463325252; var acc = 0;\n"
     "for (var i = 0; i < n; i = i + 1) {\n"
     "  x = x ^ (x << 13); x = x ^ (x >> 7); x = x ^ (x << 17);\n"
     "  acc = acc + (x & 1023);\n"
     "}\n"
     "out(acc);",
     [](std::int64_t n) {
       std::uint64_t x = 88172645463325252ULL;
       std::int64_t acc = 0;
       for (std::int64_t i = 0; i < n; ++i) {
         x ^= x << 13;
         x ^= x >> 7;
         x ^= x << 17;
         acc += static_cast<std::int64_t>(x & 1023);
       }
       return acc;
     },
     4'000'000, 200'000},
};

double best_seconds(int reps, const std::function<void()>& fn) {
  double best = 1e30;
  for (int i = 0; i < reps; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct KernelRow {
  std::string name;
  double native_s = 0;
  // Overhead multipliers: vm_time / native_time.
  double legacy = 0, direct = 0;
};

KernelRow measure_kernel(const Kernel& k, std::int64_t n, int reps) {
  KernelRow row;
  row.name = k.name;

  std::int64_t expect = k.native(n);
  row.native_s = best_seconds(reps, [&] {
    if (k.native(n) != expect) std::abort();
  });

  auto prog = microc::compile(k.source, k.name);
  if (!prog.is_ok()) {
    std::fprintf(stderr, "%s: compile failed\n", k.name);
    std::abort();
  }
  auto decoded = microc::decode(prog.value());
  if (!decoded.is_ok()) std::abort();

  // dec == nullptr runs the legacy interpreter on the raw bytecode.
  auto run_vm = [&](const microc::DecodedProgram* dec) {
    return best_seconds(reps, [&] {
      KernelHost host(n);
      microc::VmResult r = dec == nullptr
                               ? microc::Vm::run_legacy(prog.value(), host)
                               : microc::Vm::run(*dec, prog.value(), host);
      if (!r.status.is_ok() || host.outputs.size() != 1 ||
          host.outputs[0] != expect) {
        std::fprintf(stderr, "%s: VM result mismatch\n", k.name);
        std::abort();
      }
    });
  };

  row.legacy = run_vm(nullptr) / row.native_s;
  row.direct = run_vm(&decoded.value()) / row.native_s;
  return row;
}

double geomean(const std::vector<KernelRow>& rows,
               double KernelRow::*field) {
  double log_sum = 0;
  for (const auto& r : rows) log_sum += std::log(r.*field);
  return std::exp(log_sum / static_cast<double>(rows.size()));
}

// --- Section B: full-runtime overhead vs a minimal sequential worklist ------

/// Minimal sequential dataflow machine: frames, a FIFO worklist, direct
/// intrinsic dispatch. The "stand-alone sequential program" baseline.
class MiniRunner : public microc::IntrinsicHandler {
 public:
  explicit MiniRunner(const ProgramSpec& spec) : spec_(spec) {
    for (const auto& t : spec.threads) {
      auto compiled = microc::compile(t.source, t.name);
      if (!compiled.is_ok()) {
        std::fprintf(stderr, "compile failed: %s\n",
                     compiled.status().to_string().c_str());
        std::abort();
      }
      auto decoded = microc::decode(compiled.value());
      if (!decoded.is_ok()) std::abort();
      code_.push_back(std::move(compiled).value());
      decoded_.push_back(std::move(decoded).value());
    }
  }

  std::int64_t run() {
    std::int64_t entry = thread_index(spec_.entry);
    std::int64_t root = make_frame(entry, 1);
    send(root, 0, 0);
    while (!exited_ && !ready_.empty()) {
      std::int64_t fid = ready_.front();
      ready_.pop_front();
      current_ = &frames_.at(fid);
      auto idx = static_cast<std::size_t>(current_->tid);
      auto result = microc::Vm::run(decoded_[idx], code_[idx], *this);
      if (!result.status.is_ok()) std::abort();
      frames_.erase(fid);
    }
    return exit_code_;
  }

  // IntrinsicHandler ------------------------------------------------------
  std::int64_t param(std::int64_t i) override {
    return current_->params.at(static_cast<std::size_t>(i));
  }
  std::int64_t num_params() override {
    return static_cast<std::int64_t>(current_->params.size());
  }
  std::int64_t spawn(const std::string& name, std::int64_t n) override {
    return make_frame(thread_index(name), n);
  }
  void send(std::int64_t frame, std::int64_t slot,
            std::int64_t value) override {
    Frame& f = frames_.at(frame);
    f.params[static_cast<std::size_t>(slot)] = value;
    if (--f.missing == 0) ready_.push_back(frame);
  }
  std::int64_t alloc(std::int64_t n) override {
    std::int64_t a = next_addr_++;
    heap_[a].assign(static_cast<std::size_t>(n), 0);
    return a;
  }
  std::int64_t load(std::int64_t a, std::int64_t i) override {
    return heap_.at(a).at(static_cast<std::size_t>(i));
  }
  void store(std::int64_t a, std::int64_t i, std::int64_t v) override {
    heap_.at(a).at(static_cast<std::size_t>(i)) = v;
  }
  void out(std::int64_t v) override { outputs.push_back(v); }
  void out_str(const std::string&) override {}
  void charge(std::int64_t) override {}
  std::int64_t self_site() override { return 0; }
  std::int64_t arg(std::int64_t i) override {
    return spec_.args.at(static_cast<std::size_t>(i));
  }
  std::int64_t num_args() override {
    return static_cast<std::int64_t>(spec_.args.size());
  }
  void exit_program(std::int64_t code) override {
    exited_ = true;
    exit_code_ = code;
  }

  std::vector<std::int64_t> outputs;

 private:
  struct Frame {
    std::int64_t tid;
    std::vector<std::int64_t> params;
    std::int64_t missing;
  };

  std::int64_t thread_index(const std::string& name) {
    for (std::size_t i = 0; i < spec_.threads.size(); ++i) {
      if (spec_.threads[i].name == name) return static_cast<std::int64_t>(i);
    }
    std::abort();
  }
  std::int64_t make_frame(std::int64_t tid, std::int64_t n) {
    std::int64_t id = next_frame_++;
    Frame f;
    f.tid = tid;
    f.params.assign(static_cast<std::size_t>(n), 0);
    f.missing = n;
    if (n == 0) ready_.push_back(id);
    frames_.emplace(id, std::move(f));
    return id;
  }

  const ProgramSpec& spec_;
  std::vector<microc::Program> code_;
  std::vector<microc::DecodedProgram> decoded_;
  std::map<std::int64_t, Frame> frames_;
  std::map<std::int64_t, std::vector<std::int64_t>> heap_;
  std::deque<std::int64_t> ready_;
  Frame* current_ = nullptr;
  std::int64_t next_frame_ = 1;
  std::int64_t next_addr_ = 1'000'000;
  bool exited_ = false;
  std::int64_t exit_code_ = 0;
};

struct ClusterNumbers {
  double seq_s = 0;
  double sdvm_s = 0;
  double overhead_pct = 0;
  std::uint64_t runtime_ns = 0;      // proc.runtime_ns histogram sum
  std::uint64_t vm_dispatch_ns = 0;  // proc.vm_dispatch_ns histogram sum
};

ClusterNumbers measure_cluster(bool smoke) {
  apps::PrimesParams params;
  params.p = smoke ? 60 : 400;
  params.width = 10;
  params.work_mult = 0;
  params.spin = smoke ? 5'000 : 50'000;
  ProgramSpec spec = apps::make_primes_program(params);

  const int reps = smoke ? 2 : 5;
  ClusterNumbers out;
  out.seq_s = best_seconds(reps, [&] {
    MiniRunner runner(spec);
    if (runner.run() != 0) std::abort();
  });

  // One executor slot: the worklist baseline runs one microthread at a
  // time, so more slots would measure parallel speed-up, not overhead.
  LocalCluster cluster;
  SiteConfig site;
  site.executor_slots = 1;
  cluster.add_sites(1, site);
  out.sdvm_s = best_seconds(reps, [&] {
    auto pid = cluster.start_program(spec);
    if (!pid.is_ok()) std::abort();
    auto code = cluster.wait_program(pid.value(), 300 * kNanosPerSecond);
    if (!code.is_ok()) std::abort();
  });
  out.overhead_pct = (out.sdvm_s / out.seq_s - 1.0) * 100.0;

  auto status = cluster.status(0);
  if (status.is_ok()) {
    const auto& m = status.value().metrics;
    if (const auto* v = m.find("proc.runtime_ns")) out.runtime_ns = v->sum;
    if (const auto* v = m.find("proc.vm_dispatch_ns")) {
      out.vm_dispatch_ns = v->sum;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_overhead.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out FILE]\n", argv[0]);
      return 2;
    }
  }
  const int reps = smoke ? 3 : 5;

  std::printf("O1: MicroC/SDVM overhead vs native sequential execution%s\n\n",
              smoke ? " (smoke)" : "");
  std::printf("A. interpretation overhead (multiplier vs native C++)\n");
  std::printf("%-10s %10s %9s %9s\n", "kernel", "native_s", "legacy",
              "direct");

  std::vector<KernelRow> rows;
  for (const Kernel& k : kKernels) {
    KernelRow row = measure_kernel(k, smoke ? k.n_smoke : k.n_full, reps);
    std::printf("%-10s %10.4f %8.1fx %8.1fx\n", row.name.c_str(),
                row.native_s, row.legacy, row.direct);
    rows.push_back(std::move(row));
  }
  double g_legacy = geomean(rows, &KernelRow::legacy);
  double g_direct = geomean(rows, &KernelRow::direct);
  double reduction = g_legacy / g_direct;
  std::printf("%-10s %10s %8.1fx %8.1fx\n", "geomean", "", g_legacy,
              g_direct);
  std::printf("overhead reduction vs legacy VM: %.2fx\n\n", reduction);

  std::printf("B. runtime machinery overhead (full SDVM vs worklist)\n");
  ClusterNumbers c = measure_cluster(smoke);
  std::printf("sequential baseline : %8.3f s\n", c.seq_s);
  std::printf("SDVM, 1 site, 1 slot: %8.3f s\n", c.sdvm_s);
  std::printf("overhead            : %8.1f %%   (paper reports ~3%%)\n",
              c.overhead_pct);
  std::printf("proc.runtime_ns sum : %llu\n",
              static_cast<unsigned long long>(c.runtime_ns));
  std::printf("proc.vm_dispatch_ns : %llu (%.1f%% of microthread time)\n",
              static_cast<unsigned long long>(c.vm_dispatch_ns),
              c.runtime_ns > 0 ? 100.0 * static_cast<double>(c.vm_dispatch_ns) /
                                     static_cast<double>(c.runtime_ns)
                               : 0.0);

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"overhead_sequential\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"native_s\": %.6f, "
                 "\"overhead_legacy\": %.2f, \"overhead_direct\": %.2f}%s\n",
                 r.name.c_str(), r.native_s, r.legacy, r.direct,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"geomean\": {\"legacy\": %.2f, \"direct\": %.2f},\n",
               g_legacy, g_direct);
  std::fprintf(f, "  \"reduction_vs_legacy\": %.2f,\n", reduction);
  std::fprintf(f,
               "  \"cluster\": {\"sequential_s\": %.4f, \"sdvm_s\": %.4f, "
               "\"overhead_pct\": %.2f, \"runtime_ns\": %llu, "
               "\"vm_dispatch_ns\": %llu}\n}\n",
               c.seq_s, c.sdvm_s, c.overhead_pct,
               static_cast<unsigned long long>(c.runtime_ns),
               static_cast<unsigned long long>(c.vm_dispatch_ns));
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);

  // The refactor's acceptance bar: the shipped pipeline at least halves
  // the interpretation overhead of the legacy VM.
  if (reduction < 2.0) {
    std::fprintf(stderr, "FAIL: overhead reduction %.2fx < 2x target\n",
                 reduction);
    return 1;
  }
  return 0;
}
