// Figure 8: compression speed vs input size, by segment count.
// Paper: encode gains little from 8 vs 4 threads because the *serial*
// Huffman decode of the original JPEG becomes the bottleneck — the encoder
// cannot use handover words on a file it did not write (§5.4).
//
// Columns are segment counts (force_threads), not threads: every segment
// may also take a pool helper that precomputes its context-plane rows, so
// even "1 segment" can use two cores. The "serial" column is one segment
// with run_parallel = false — one thread end to end, the baseline that
// keeps the serial Huffman decode bottleneck visible.
#include "bench_common.h"
#include "corpus/corpus.h"
#include "lepton/codec.h"

int main(int argc, char** argv) {
  bool full = bench::want_full(argc, argv);
  bench::header("Figure 8: encode Mbit/s vs size, by segment count",
                "4->8 threads barely helps: serial JPEG Huffman decode "
                "bottlenecks the encoder");

  std::vector<std::size_t> sizes = full
      ? std::vector<std::size_t>{100u << 10, 400u << 10, 1u << 20, 2u << 20,
                                 4u << 20}
      : std::vector<std::size_t>{48u << 10, 96u << 10, 192u << 10,
                                 384u << 10};
  std::printf("%12s %12s %12s %12s %12s %12s\n", "size KiB", "serial",
              "1 segment", "2 segments", "4 segments", "8 segments");
  int reps = full ? 1 : 3;
  for (std::size_t target : sizes) {
    auto jpeg = lepton::corpus::jpeg_of_size(target, 8000 + target);
    std::printf("%12.1f", jpeg.size() / 1024.0);
    // 0 = the serial column: one segment, run_parallel off.
    for (int segments : {0, 1, 2, 4, 8}) {
      lepton::EncodeOptions opt;
      opt.force_threads = segments == 0 ? 1 : segments;
      opt.run_parallel = segments != 0;
      double best = 0;
      for (int r = 0; r < reps; ++r) {
        lepton::Result enc;
        double secs = bench::time_s(
            [&] { enc = lepton::encode_jpeg({jpeg.data(), jpeg.size()}, opt); });
        if (enc.ok()) best = std::max(best, bench::mbits(jpeg.size()) / secs);
      }
      std::printf("%12.1f", best);
    }
    std::printf("\n");
  }
  return 0;
}
