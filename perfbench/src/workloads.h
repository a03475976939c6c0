// The benchmark's three workloads and the layer probes their traced runs
// share. See perfbench/README.md for why each workload exists and which
// layer metric should move which end-to-end metric.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // where the input cache, stores and traces live
};

struct RunOutput {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricSheet metrics;
  // Human-readable report lines printed before the result line.
  std::vector<std::string> notes;
};

RunOutput run_serve(const RunArgs& args, bool decode);
RunOutput run_store(const RunArgs& args);

// A wrong byte anywhere is not a failure to count but a broken program:
// report it and end the process (with every thread) at once, nonzero.
[[noreturn]] void abort_wrong_bytes(const std::string& what);

// ---- layer probes (traced runs only) ---------------------------------------

// Per-MB costs of the codec layers, from one thread, per size band
// (index 0..2, see InputFile::band) and over all probed files (index 3).
struct CodecRates {
  struct Band {
    double mb = 0;  // probed original-JPEG MB
    double encode = 0, encode_1t = 0, parse = 0, huffman_decode = 0;
    double decode = 0, decode_1t = 0, huffman_encode = 0;
    double md5 = 0, miss_decode = 0;  // all seconds
  };
  Band band[4];
  // ms per MB of the given field for a band, falling back to all files.
  double ms_per_mb(int b, double Band::*field) const;
};

// Times every public codec call of the table in README.md on `files`
// (each a root span "probe" with one child per call, so the self-time rule
// applies), checks each output, and fills the per-layer rate metrics.
CodecRates codec_probes(const std::vector<InputFile>& files, SpanRecorder& rec,
                        MetricSheet& m);

// The layer metrics of a layer the workload itself does not drive, from a
// short side probe over the same inputs: a loopback EventServer (for
// store_zipf) or a small ShardedStore (for the serve workloads).
void side_server_probe(const std::vector<InputFile>& files, MetricSheet& m);
void side_store_probe(const std::vector<InputFile>& files,
                      const std::string& dir, MetricSheet& m);

}  // namespace perfbench
