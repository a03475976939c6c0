// Seeded benchmark inputs.
//
// Each pool of valid JPEGs has a fixed shape — the size targets,
// qualities, subsampling and content styles of its slots never change —
// and the seed draws the pixels, so two seeds give different files with
// the same mix. corpus::build_corpus draws the quality and style of every
// file from the seed instead; with pools of this size that made the
// figures of five seeds spread by up to 0.37 of their median, beyond the
// benchmark's bounds (perfbench/README.md). The anomaly files do come from
// build_corpus.
// Synthesis is slow (seconds per MiB of JPEG), so pools are cached on disk
// keyed by seed; callers do it before any timing starts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

struct InputFile {
  std::string label;
  std::vector<std::uint8_t> bytes;
  // threads_for_size band of a valid JPEG: 0 (<128 KiB), 1 (<512 KiB),
  // 2 (<3 MiB); -1 for the anomaly files of serve_encode.
  int band = -1;
  // For an anomaly file: the files of its kind among 200 valid ones in
  // build_corpus's §6.2 / §A.3 proportions; 0 for a valid JPEG.
  int per_200 = 0;
};

// serve_pool's files per threads_for_size band, in proportion to each
// band's share of log(size) between 12 KiB and 2.3 MiB: the log-uniform
// spread build_corpus gives its valid files.
inline constexpr int kSmallFiles = 14, kMediumFiles = 9, kLargeFiles = 9;

// kSmallFiles + kMediumFiles + kLargeFiles baseline JPEGs (12 KiB .. 2.3
// MiB), all well below the encoder's coefficient budget.
std::vector<InputFile> serve_pool(std::uint64_t seed, const std::string& cache_dir);

// The §6.2/§A.3 anomaly mix of corpus::build_corpus (progressive, lossless,
// not-an-image, CMYK, zero-wiped tail, truncated, trailing garbage,
// concatenated), one file of each kind, each with its kind's share.
std::vector<InputFile> anomaly_pool(std::uint64_t seed, const std::string& cache_dir);

// 64 small baseline JPEGs, log-spaced from 6 to 96 KiB: the base images of
// store_zipf's objects.
std::vector<InputFile> store_base_pool(std::uint64_t seed,
                                       const std::string& cache_dir);

// `jpeg` with a COM segment carrying `nonce` inserted right after SOI: a
// still-valid JPEG whose bytes (and decoded output) differ per nonce.
std::vector<std::uint8_t> with_nonce(std::span<const std::uint8_t> jpeg,
                                     const std::string& nonce);

}  // namespace perfbench
