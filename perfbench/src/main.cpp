// sdvm_perfbench — one run of one SDVM benchmark workload.
//
//   sdvm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: tcp_primes, sim_table1_enc, sim_membership, threads_finegrain.
// --trace 0 measures the end-to-end metrics with every hook off; --trace 1
// is the separate traced run that reports the per-layer metrics. The run
// prints a human summary, then one `{"record": ...}` line holding every
// metric's median and quartiles, then the result line
// {"correct", "attempted", "failed", "metrics"} as its last line.
// perfbench/run.py builds this binary and adds provenance to the record.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/log.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <tcp_primes|sim_table1_enc|"
               "sim_membership|threads_finegrain> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               argv0);
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out += ch;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::atof(val);
    } else if (key == "--trace") {
      o.trace = std::strcmp(val, "1") == 0;
      have_trace = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || o.workload.empty() || o.seconds <= 0 || !have_trace) {
    return usage(argv[0]);
  }
  sdvm::Logger::set_level(sdvm::LogLevel::kError);

  Report r;
  if (o.workload == "tcp_primes") {
    r = run_tcp_primes(o);
  } else if (o.workload == "threads_finegrain") {
    r = run_threads_finegrain(o);
  } else if (o.workload == "sim_table1_enc") {
    r = run_sim_table1_enc(o);
  } else if (o.workload == "sim_membership") {
    r = run_sim_membership(o);
  } else {
    return usage(argv[0]);
  }

  if (r.attempted == 0) r.problem("no program was attempted");
  const bool correct = r.failed == 0 && r.deterministic && r.problems.empty();
  for (const auto& p : r.problems) std::fprintf(stderr, "problem: %s\n", p.c_str());

  std::printf("workload %s seed %llu seconds %g trace %d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0);
  std::printf("%-34s %14s %14s %14s %6s %s\n", "metric", "median", "q1", "q3",
              "n", "unit");
  for (const auto& [name, m] : r.metrics) {
    std::printf("%-34s %14.6g %14.6g %14.6g %6zu %s\n", name.c_str(), m.value,
                m.q1, m.q3, m.n, m.unit.c_str());
  }
  std::printf("programs attempted %llu failed %llu (failed_share %.4f)%s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.attempted ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 1.0,
              r.deterministic ? "" : " DETERMINISM FAILURE");

  std::string record = "{\"record\":{\"workload\":" + json_string(o.workload) +
                       ",\"seed\":" + std::to_string(o.seed) +
                       ",\"seconds\":" + json_num(o.seconds) +
                       ",\"trace\":" + (o.trace ? "true" : "false") +
                       ",\"deterministic\":" +
                       (r.deterministic ? "true" : "false") +
                       ",\"failed_share\":" +
                       json_num(r.attempted ? static_cast<double>(r.failed) /
                                             static_cast<double>(r.attempted)
                                       : 1.0) +
                       ",\"info\":{";
  bool first = true;
  for (const auto& [key, json] : r.info) {
    record += (first ? "" : ",") + json_string(key) + ":" + json;
    first = false;
  }
  record += "},\"metrics\":{";
  first = true;
  for (const auto& [name, m] : r.metrics) {
    record += (first ? "" : ",") + json_string(name) + ":{\"median\":" +
              json_num(m.value) + ",\"q1\":" + json_num(m.q1) + ",\"q3\":" + json_num(m.q3) +
              ",\"n\":" + std::to_string(m.n) + ",\"unit\":" +
              json_string(m.unit) + "}";
    first = false;
  }
  record += "}}}";
  std::printf("%s\n", record.c_str());

  std::string result = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(r.attempted) +
                       ", \"failed\": " + std::to_string(r.failed) +
                       ", \"metrics\": {";
  first = true;
  for (const auto& [name, m] : r.metrics) {
    result += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
              json_num(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}
