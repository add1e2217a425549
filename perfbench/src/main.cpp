// perfbench: one closed-loop run of one workload against the host runtime.
//
//   perfbench --workload <kv_zipf_ring|frame_direct|shm_xproc> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints one JSON object on stdout: correctness, request counts, every
// metric with its unit, and run information (stream hashes, sample counts,
// set-up repeats). perfbench/run.py builds this program and turns that
// object into the benchmark's result line.
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include <sched.h>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <kv_zipf_ring|frame_direct|shm_xproc> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunArgs a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out-dir") a.out_dir = v;
    else return usage();
  }
  if (argc % 2 != 1 || a.seconds <= 0 || a.seconds > 120) return usage();
  const int threads = pb::workload_threads(a.workload);
  if (threads == 0) return usage();
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const int nproc = sched_getaffinity(0, sizeof allowed, &allowed) == 0
                        ? CPU_COUNT(&allowed)
                        : 1;
  if (threads > nproc) {
    std::fprintf(stderr, "perfbench: %s needs %d worker threads but only %d CPUs are available\n",
                 a.workload.c_str(), threads, nproc);
    return 3;
  }

  // A server process that dies closes its pipes; report that as a failed
  // run instead of dying on SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  pb::Report r;
  int rc = 1;
  try {
    if (a.workload == "kv_zipf_ring") rc = pb::run_kv_zipf_ring(a, r);
    else if (a.workload == "frame_direct") rc = pb::run_frame_direct(a, r);
    else rc = pb::run_shm_xproc(a, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(), e.what());
    return 1;
  }
  r.correct = rc == 0 && r.failed == 0 && r.attempted > 0;

  std::string out = "{\"workload\":\"" + a.workload + "\",\"seed\":" + std::to_string(a.seed) +
                    ",\"trace\":" + (a.trace ? "1" : "0") +
                    ",\"seconds\":" + json_number(a.seconds) +
                    ",\"worker_threads\":" + std::to_string(threads) +
                    ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"" +
                    ",\"correct\":" + (r.correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) +
                    ",\"first_error\":\"" + json_escape(r.first_error) + "\",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out += (first ? "\"" : ",\"") + name + "\":{\"value\":" + json_number(m.first) +
           ",\"unit\":\"" + m.second + "\"}";
    first = false;
  }
  out += "},\"info\":{";
  first = true;
  for (const auto& [key, json] : r.info) {
    out += (first ? "\"" : ",\"") + key + "\":" + json;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return r.correct ? 0 : 1;
}
