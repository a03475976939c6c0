// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload serve_decode|serve_encode|store_zipf --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--commit SHA]
//
// Prints a fingerprint line, report lines, and as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
// builds this program and is the command to run.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else if (k == "--work-dir") {
      args.work_dir = v;
    } else if (k == "--commit") {
      commit = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (args.work_dir.empty() || args.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --work-dir and --seconds > 0 are required\n");
    return 2;
  }
  std::filesystem::create_directories(args.work_dir + "/tmp");

  perfbench::RunOutput out;
  if (args.workload == "serve_decode" || args.workload == "serve_encode") {
    out = perfbench::run_serve(args, args.workload == "serve_decode");
  } else if (args.workload == "store_zipf") {
    out = perfbench::run_store(args);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("fingerprint %s\n", perfbench::fingerprint_json(commit).c_str());
  for (const auto& n : out.notes) std::printf("%s\n", n.c_str());
  if (!out.correct) {
    std::fprintf(stderr, "perfbench: run is not correct\n");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), out.metrics.json().c_str());
  return 0;
}
