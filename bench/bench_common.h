// Shared support for the figure/table benches: a cached benchmark corpus
// (the stand-in for the paper's 233k sampled chunks, §4), wall-clock
// timing, and uniform row printing so each bench's output reads like the
// corresponding figure. Every bench prints the paper's reported values next
// to the measured ones; EXPERIMENTS.md records both.
#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "util/stats.h"

namespace bench {

// Corpus sizes are scaled down from the paper's 100 KiB-4 MiB so every
// bench binary finishes in seconds; pass --full for the wider band.
inline lepton::corpus::CorpusOptions corpus_options(bool full) {
  lepton::corpus::CorpusOptions o;
  if (full) {
    o.min_bytes = 100 << 10;
    o.max_bytes = 4 << 20;
    o.valid_files = 40;
  } else {
    o.min_bytes = 24 << 10;
    o.max_bytes = 320 << 10;
    o.valid_files = 18;
  }
  return o;
}

inline const std::vector<lepton::corpus::CorpusFile>& corpus(bool full) {
  static std::vector<lepton::corpus::CorpusFile> small =
      lepton::corpus::build_corpus(corpus_options(false));
  static std::vector<lepton::corpus::CorpusFile> big;
  if (!full) return small;
  if (big.empty()) big = lepton::corpus::build_corpus(corpus_options(true));
  return big;
}

inline bool want_full(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--full") return true;
  }
  return false;
}

// Seconds elapsed running fn(). Monotonic (steady_clock) — wall-clock
// sources jump under NTP and invalidate short measurements.
inline double time_s(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Best-of-N timing: the minimum over `rounds` runs. The shared-vCPU boxes
// these benches run on see multi-second CPU-steal episodes; the minimum is
// the only statistic that converges on the machine's actual speed. All
// benches report best-of-N through this helper so their numbers compare.
inline double best_of(int rounds, const std::function<void()>& fn) {
  double best = 1e100;
  for (int r = 0; r < rounds; ++r) {
    double s = time_s(fn);
    if (s < best) best = s;
  }
  return best;
}

inline double mbits(std::size_t bytes) { return bytes * 8.0 / 1e6; }

inline void header(const char* title, const char* paper_note) {
  std::printf("==== %s ====\n", title);
  std::printf("paper: %s\n\n", paper_note);
}

}  // namespace bench
