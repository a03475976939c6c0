#include "inputs.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "corpus/corpus.h"
#include "corpus/image_gen.h"
#include "jpeg/jfif_builder.h"
#include "lepton/codec.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using lepton::corpus::ImageStyle;
using lepton::jpegfmt::Subsampling;
using S = Subsampling;
using lepton::corpus::FileKind;

// Bumped whenever synthesis changes, so stale caches are never read.
constexpr int kPoolVersion = 6;

struct SlotSpec {
  std::size_t target = 0;
  int quality = 85;
  Subsampling sub = Subsampling::k420;
  ImageStyle style = ImageStyle::kMixed;
  double aspect = 1.33;
  int restart_mcus = 0;
  bool optimize_huffman = false;
};

// `n` targets log-spaced over [lo, hi].
std::vector<std::size_t> log_spaced(std::size_t lo, std::size_t hi, int n) {
  std::vector<std::size_t> out;
  for (int i = 0; i < n; ++i) {
    double t = n == 1 ? 0.5 : static_cast<double>(i) / (n - 1);
    out.push_back(static_cast<std::size_t>(
        std::exp(std::log(static_cast<double>(lo)) +
                 t * (std::log(static_cast<double>(hi)) -
                      std::log(static_cast<double>(lo))))));
  }
  return out;
}

// Slot i of a band: qualities, styles and subsampling cycle through fixed
// lists, so every band holds the same mix whatever the seed. Larger bands
// use higher qualities and less chroma subsampling, as camera originals
// do; that also keeps their pixel counts (and synthesis time) down. The
// edge and smooth styles compress so well that they appear only in small
// bands.
std::vector<SlotSpec> band_slots(std::size_t lo, std::size_t hi, int n,
                                 std::vector<int> qualities,
                                 std::vector<Subsampling> subs, bool smooth) {
  static const ImageStyle kStyles[] = {ImageStyle::kMixed, ImageStyle::kTexture,
                                       ImageStyle::kEdges,
                                       ImageStyle::kSmoothGradient};
  int styles = smooth ? 4 : 2;
  std::vector<SlotSpec> out;
  auto targets = log_spaced(lo, hi, n);
  for (int i = 0; i < n; ++i) {
    SlotSpec s;
    s.target = targets[static_cast<std::size_t>(i)];
    s.quality = qualities[static_cast<std::size_t>(i) % qualities.size()];
    s.style = kStyles[(i + i / 4) % styles];
    s.sub = subs[static_cast<std::size_t>(i / 2) % subs.size()];
    s.aspect = (i % 3 == 0) ? 0.75 : 1.33;
    s.restart_mcus = (i % 5 == 2) ? 8 : 0;
    s.optimize_huffman = (i % 3 == 1);
    out.push_back(s);
  }
  return out;
}

// Pixel cap: keeps every file well inside the encoder's coefficient budget
// even at 4:4:4.
constexpr double kMaxPixels = 16e6;

// Synthesizes a JPEG within 3% of the slot's target. A small calibration
// image gives the bytes per pixel; the full image is generated about a third
// too large once, then cropped row-wise until it fits — re-encoding a
// crop is far cheaper than generating pixels again.
std::vector<std::uint8_t> synth(const SlotSpec& spec, std::uint64_t seed) {
  lepton::util::Rng rng(seed);
  lepton::jpegfmt::JfifOptions opt;
  opt.quality = spec.quality;
  opt.subsampling = spec.sub;
  opt.restart_interval_mcus = spec.restart_mcus;
  opt.optimize_huffman = spec.optimize_huffman;
  char com[64];
  std::snprintf(com, sizeof(com), "perfbench image %016llx",
                static_cast<unsigned long long>(rng.next()));
  opt.comment.assign(com, com + std::char_traits<char>::length(com));
  std::uint64_t img_seed = rng.next();
  const auto target = static_cast<double>(spec.target);

  // Larger images are mosaics of independently seeded tiles (2x2 above
  // 1 Mpx, 3x3 above 4 Mpx): averaging over tiles keeps a file's coding
  // cost per byte close to its slot's across seeds, which one image's
  // random gradients and edges would not.
  auto generate = [&](double area) {
    area = std::min(area, kMaxPixels);
    int w = std::max(16, static_cast<int>(std::sqrt(area * spec.aspect)));
    int h = std::max(16, static_cast<int>(area / w));
    int k = area > 4e6 ? 3 : (area > 1e6 ? 2 : 1);
    if (k == 1) return lepton::corpus::generate_image(w, h, 3, spec.style, img_seed);
    lepton::jpegfmt::RasterImage img;
    img.width = w;
    img.height = h;
    img.channels = 3;
    img.pixels.resize(static_cast<std::size_t>(w) * h * 3);
    int tw = (w + k - 1) / k, th = (h + k - 1) / k;
    for (int ty = 0; ty < k; ++ty) {
      for (int tx = 0; tx < k; ++tx) {
        auto tile = lepton::corpus::generate_image(
            tw, th, 3, spec.style, img_seed + static_cast<std::uint64_t>(ty * k + tx));
        for (int y = 0; y < th && ty * th + y < h; ++y) {
          int cols = std::min(tw, w - tx * tw);
          std::memcpy(&img.pixels[(static_cast<std::size_t>(ty * th + y) * w + tx * tw) * 3],
                      &tile.pixels[static_cast<std::size_t>(y) * tw * 3],
                      static_cast<std::size_t>(cols) * 3);
        }
      }
    }
    return img;
  };
  auto img = generate(std::min(250e3, target * 8));
  auto file = lepton::jpegfmt::build_jfif(img, opt);
  double bpp = static_cast<double>(file.size()) / (img.width * img.height);
  for (int attempt = 0; attempt < 2; ++attempt) {
    img = generate(1.35 * target / bpp);
    file = lepton::jpegfmt::build_jfif(img, opt);
    double px = static_cast<double>(img.width) * img.height;
    if (static_cast<double>(file.size()) >= target || px >= 0.99 * kMaxPixels) break;
    bpp = static_cast<double>(file.size()) / px;
  }
  for (int crop = 0; crop < 4; ++crop) {
    double ratio = static_cast<double>(file.size()) / target;
    if (ratio < 1.03) break;
    img.height = std::max(16, static_cast<int>(img.height / ratio));
    img.pixels.resize(static_cast<std::size_t>(img.width) * img.height * 3);
    file = lepton::jpegfmt::build_jfif(img, opt);
  }
  return file;
}

int band_of(std::size_t bytes) {
  int t = lepton::threads_for_size(bytes, 8);
  return t == 1 ? 0 : (t == 2 ? 1 : 2);
}

// Synthesizes every slot on 4 threads, largest first.
std::vector<InputFile> synth_pool(const std::vector<SlotSpec>& slots,
                                  std::uint64_t seed, const std::string& prefix) {
  std::vector<InputFile> out(slots.size());
  std::vector<std::size_t> order(slots.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return slots[a].target > slots[b].target;
  });
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t k; (k = next++) < order.size();) {
      std::size_t i = order[k];
      out[i].label = prefix + std::to_string(i);
      out[i].bytes = synth(slots[i], seed * 1000003u + i);
      out[i].band = band_of(out[i].bytes.size());
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(work);
  for (auto& t : threads) t.join();
  return out;
}

// Files of each kind build_corpus makes alongside 200 valid ones — its
// §6.2 / §A.3 proportions (corpus.h) at the smallest corpus where no kind
// is rounded up to one file.
int anomalies_per_200(FileKind kind) {
  switch (kind) {
    case FileKind::kProgressive: return 6;
    case FileKind::kUnsupported: return 3;
    case FileKind::kNotAnImage: return 2;
    case FileKind::kCmyk: return 1;
    case FileKind::kZeroWipedTail: return 4;
    case FileKind::kTruncated: return 2;
    case FileKind::kTrailingGarbage: return 4;
    case FileKind::kConcatenated: return 2;
    case FileKind::kBaselineJpeg: break;
  }
  return 0;
}

// ---- on-disk cache ----------------------------------------------------------

std::string cache_path(const std::string& dir, const std::string& name,
                       std::uint64_t seed) {
  return dir + "/" + name + "-v" + std::to_string(kPoolVersion) + "-" +
         std::to_string(seed) + ".bin";
}

bool load_pool(const std::string& path, std::vector<InputFile>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::uint32_t n = 0;
  if (!in.read(reinterpret_cast<char*>(&n), sizeof(n)) || n > 4096) return false;
  out->assign(n, {});
  for (auto& f : *out) {
    std::uint32_t label_len = 0;
    std::uint64_t len = 0;
    std::int32_t band = 0, per_200 = 0;
    if (!in.read(reinterpret_cast<char*>(&label_len), sizeof(label_len)) ||
        label_len > 256) {
      return false;
    }
    f.label.resize(label_len);
    if (!in.read(f.label.data(), label_len) ||
        !in.read(reinterpret_cast<char*>(&band), sizeof(band)) ||
        !in.read(reinterpret_cast<char*>(&per_200), sizeof(per_200)) ||
        !in.read(reinterpret_cast<char*>(&len), sizeof(len)) || len > (64u << 20)) {
      return false;
    }
    f.band = band;
    f.per_200 = per_200;
    f.bytes.resize(len);
    if (!in.read(reinterpret_cast<char*>(f.bytes.data()),
                 static_cast<std::streamsize>(len))) {
      return false;
    }
  }
  return true;
}

void save_pool(const std::string& path, const std::vector<InputFile>& pool) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    auto n = static_cast<std::uint32_t>(pool.size());
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    for (const auto& f : pool) {
      auto label_len = static_cast<std::uint32_t>(f.label.size());
      std::int32_t band = f.band, per_200 = f.per_200;
      std::uint64_t len = f.bytes.size();
      out.write(reinterpret_cast<const char*>(&label_len), sizeof(label_len));
      out.write(f.label.data(), label_len);
      out.write(reinterpret_cast<const char*>(&band), sizeof(band));
      out.write(reinterpret_cast<const char*>(&per_200), sizeof(per_200));
      out.write(reinterpret_cast<const char*>(&len), sizeof(len));
      out.write(reinterpret_cast<const char*>(f.bytes.data()),
                static_cast<std::streamsize>(len));
    }
    if (!out) return;  // an unwritable cache only costs a re-synthesis
  }
  std::filesystem::rename(tmp, path);
}

template <class Make>
std::vector<InputFile> cached(const std::string& dir, const std::string& name,
                              std::uint64_t seed, Make make) {
  std::string path = cache_path(dir, name, seed);
  std::vector<InputFile> pool;
  if (load_pool(path, &pool)) return pool;
  pool = make();
  save_pool(path, pool);
  return pool;
}

}  // namespace

std::vector<InputFile> serve_pool(std::uint64_t seed, const std::string& cache_dir) {
  return cached(cache_dir, "serve", seed, [&] {
    std::vector<SlotSpec> slots;
    for (auto& s : band_slots(12u << 10, 120u << 10, kSmallFiles, {60, 75, 85, 92},
                              {S::k420, S::k422, S::k420, S::k444}, true)) {
      slots.push_back(s);
    }
    for (auto& s : band_slots(150u << 10, 480u << 10, kMediumFiles, {80, 88, 94},
                              {S::k420, S::k422, S::k444}, false)) {
      slots.push_back(s);
    }
    for (auto& s : band_slots(600u << 10, 2300u << 10, kLargeFiles, {90, 93, 96},
                              {S::k444, S::k422}, false)) {
      slots.push_back(s);
    }
    return synth_pool(slots, seed, "serve-");
  });
}

std::vector<InputFile> anomaly_pool(std::uint64_t seed, const std::string& cache_dir) {
  return cached(cache_dir, "anomaly", seed, [&] {
    lepton::corpus::CorpusOptions opts;
    opts.min_bytes = 24u << 10;
    opts.max_bytes = 48u << 10;
    opts.valid_files = 1;
    opts.include_anomalies = true;
    opts.seed = seed;
    std::vector<InputFile> out;
    for (auto& f : lepton::corpus::build_corpus(opts)) {
      if (f.kind == FileKind::kBaselineJpeg) continue;
      out.push_back({f.label, std::move(f.bytes), -1, anomalies_per_200(f.kind)});
    }
    return out;
  });
}

std::vector<InputFile> store_base_pool(std::uint64_t seed,
                                       const std::string& cache_dir) {
  return cached(cache_dir, "store", seed, [&] {
    return synth_pool(band_slots(6u << 10, 96u << 10, 64, {60, 75, 85, 92},
                                 {S::k420, S::k422, S::k420, S::k444}, true),
                      seed, "store-");
  });
}

std::vector<std::uint8_t> with_nonce(std::span<const std::uint8_t> jpeg,
                                     const std::string& nonce) {
  std::size_t len = nonce.size() + 2;  // COM length counts its own 2 bytes
  std::vector<std::uint8_t> out(jpeg.size() + len + 2);
  if (jpeg.size() < 2 || len > 0xFFFF) return {jpeg.begin(), jpeg.end()};
  std::uint8_t* p = out.data();
  std::memcpy(p, jpeg.data(), 2);  // SOI
  p[2] = 0xFF;
  p[3] = 0xFE;  // COM
  p[4] = static_cast<std::uint8_t>(len >> 8);
  p[5] = static_cast<std::uint8_t>(len & 0xFF);
  std::memcpy(p + 6, nonce.data(), nonce.size());
  std::memcpy(p + 6 + nonce.size(), jpeg.data() + 2, jpeg.size() - 2);
  return out;
}

}  // namespace perfbench
