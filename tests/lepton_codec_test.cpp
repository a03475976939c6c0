// Integration tests for the Lepton codec: exact round trips across thread
// counts, streaming decode, 4-MiB-chunk independence, determinism, the
// transparent-store admit gate, hostile-container handling, and the
// pipelined encode (helper-produced context rows) against the serial loop.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <string>
#include <thread>

#include "corpus/corpus.h"
#include "jpeg/jfif_builder.h"
#include "jpeg/parser.h"
#include "jpeg/scan_decoder.h"
#include "lepton/lepton.h"
#include "lepton/plan.h"
#include "util/rng.h"

namespace jf = lepton::jpegfmt;
using lepton::util::ExitCode;

namespace {

jf::RasterImage photo_like(int w, int h, std::uint64_t seed, int channels = 3) {
  jf::RasterImage img;
  img.width = w;
  img.height = h;
  img.channels = channels;
  img.pixels.resize(static_cast<std::size_t>(w) * h * channels);
  lepton::util::Rng rng(seed);
  double cx = w * rng.uniform(0.2, 0.8), cy = h * rng.uniform(0.2, 0.8);
  int edge = static_cast<int>(rng.below(static_cast<std::uint64_t>(w)));
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      double d = std::sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy));
      for (int c = 0; c < channels; ++c) {
        double v = 110 + 70 * std::sin(d / (10.0 + 5 * c)) +
                   (x > edge ? 30 : 0) +
                   0.3 * static_cast<double>(rng.below(30));
        img.pixels[(static_cast<std::size_t>(y) * w + x) * channels + c] =
            static_cast<std::uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
      }
    }
  }
  return img;
}

std::vector<std::uint8_t> make_jpeg(int w, int h, std::uint64_t seed,
                                    jf::JfifOptions opt = {},
                                    int channels = 3) {
  return jf::build_jfif(photo_like(w, h, seed, channels), opt);
}

}  // namespace

struct CodecCase {
  int w, h, threads, dri;
  bool one_way;
  jf::Subsampling sub;
};

class LeptonRoundTrip : public ::testing::TestWithParam<CodecCase> {};

TEST_P(LeptonRoundTrip, ExactBytes) {
  const auto& p = GetParam();
  jf::JfifOptions jopt;
  jopt.subsampling = p.sub;
  jopt.restart_interval_mcus = p.dri;
  auto file = make_jpeg(p.w, p.h, 500 + p.w + p.threads, jopt);

  lepton::EncodeOptions opt;
  opt.max_threads = p.threads;
  opt.one_way = p.one_way;
  auto enc = lepton::encode_jpeg({file.data(), file.size()}, opt);
  ASSERT_TRUE(enc.ok()) << enc.message;
  EXPECT_LT(enc.data.size(), file.size()) << "must actually compress";

  auto dec = lepton::decode_lepton({enc.data.data(), enc.data.size()});
  ASSERT_TRUE(dec.ok());
  ASSERT_EQ(dec.data.size(), file.size());
  EXPECT_EQ(dec.data, file);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LeptonRoundTrip,
    ::testing::Values(
        CodecCase{96, 96, 1, 0, false, jf::Subsampling::k420},
        CodecCase{96, 96, 2, 0, false, jf::Subsampling::k420},
        CodecCase{256, 256, 4, 0, false, jf::Subsampling::k420},
        CodecCase{256, 192, 8, 0, false, jf::Subsampling::k444},
        CodecCase{256, 192, 8, 0, false, jf::Subsampling::k422},
        CodecCase{200, 600, 8, 5, false, jf::Subsampling::k420},
        CodecCase{200, 600, 8, 1, false, jf::Subsampling::k444},
        CodecCase{320, 240, 4, 0, true, jf::Subsampling::k420},
        CodecCase{17, 9, 8, 0, false, jf::Subsampling::k420},
        CodecCase{8, 8, 1, 0, false, jf::Subsampling::k444}));

TEST(LeptonCodec, GrayscaleRoundTrip) {
  auto file = make_jpeg(300, 200, 42, {}, 1);
  auto enc = lepton::encode_jpeg({file.data(), file.size()});
  ASSERT_TRUE(enc.ok()) << enc.message;
  auto dec = lepton::decode_lepton({enc.data.data(), enc.data.size()});
  EXPECT_EQ(dec.data, file);
}

TEST(LeptonCodec, TrailingGarbageAndThumbnailConcat) {
  // §A.3: cameras append TV-format data / concatenated second JPEGs. Lepton
  // compresses the leading JPEG and carries the rest verbatim.
  auto file = make_jpeg(128, 128, 43);
  auto second = make_jpeg(32, 32, 44);
  std::vector<std::uint8_t> concat = file;
  concat.insert(concat.end(), second.begin(), second.end());
  auto enc = lepton::encode_jpeg({concat.data(), concat.size()});
  ASSERT_TRUE(enc.ok()) << enc.message;
  auto dec = lepton::decode_lepton({enc.data.data(), enc.data.size()});
  EXPECT_EQ(dec.data, concat);
}

TEST(LeptonCodec, DeterministicAcrossRuns) {
  auto file = make_jpeg(200, 150, 45);
  lepton::EncodeOptions opt;
  auto a = lepton::encode_jpeg({file.data(), file.size()}, opt);
  auto b = lepton::encode_jpeg({file.data(), file.size()}, opt);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.data, b.data) << "encode must be deterministic (§5.2)";
  auto d1 = lepton::decode_lepton({a.data.data(), a.data.size()});
  lepton::DecodeOptions serial;
  serial.run_parallel = false;
  auto d2 = lepton::decode_lepton({a.data.data(), a.data.size()}, serial);
  EXPECT_EQ(d1.data, d2.data) << "parallel and serial decode must agree";
}

TEST(LeptonCodec, StreamingDecodeDeliversFirstBytesEarly) {
  auto file = make_jpeg(512, 512, 46);
  lepton::EncodeOptions opt;
  opt.max_threads = 8;
  auto enc = lepton::encode_jpeg({file.data(), file.size()}, opt);
  ASSERT_TRUE(enc.ok());
  lepton::VectorSink inner;
  lepton::TimingSink timing(&inner);
  ASSERT_EQ(lepton::decode_lepton({enc.data.data(), enc.data.size()}, timing),
            ExitCode::kSuccess);
  EXPECT_EQ(inner.data, file);
  EXPECT_GT(timing.ttfb_seconds(), 0.0);
  EXPECT_EQ(timing.bytes(), file.size());
}

TEST(LeptonCodec, ThreadPolicyMatchesPaperCutoffs) {
  EXPECT_EQ(lepton::threads_for_size(50u << 10, 8), 1);
  EXPECT_EQ(lepton::threads_for_size(300u << 10, 8), 2);
  EXPECT_EQ(lepton::threads_for_size(1u << 20, 8), 4);
  EXPECT_EQ(lepton::threads_for_size(4u << 20, 8), 8);
  EXPECT_EQ(lepton::threads_for_size(4u << 20, 2), 2) << "capped by option";
}

TEST(LeptonCodec, OneWayCompressesBetterThanEightWay) {
  // §3.4: each thread's model adapts independently, so more threads = less
  // compression. 1-way must beat 8-way on the same file.
  auto file = make_jpeg(512, 512, 47);
  lepton::EncodeOptions one;
  one.one_way = true;
  lepton::EncodeOptions eight;
  eight.force_threads = 8;
  auto a = lepton::encode_jpeg({file.data(), file.size()}, one);
  auto b = lepton::encode_jpeg({file.data(), file.size()}, eight);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(a.data.size(), b.data.size());
}

TEST(LeptonCodec, RejectionsAreClassified) {
  std::vector<std::uint8_t> junk = {0xFF, 0xD8, 1, 2, 3, 4, 5};
  EXPECT_EQ(lepton::encode_jpeg({junk.data(), junk.size()}).code,
            ExitCode::kNotAnImage);
  auto file = make_jpeg(64, 64, 48);
  for (std::size_t i = 0; i + 1 < file.size(); ++i) {
    if (file[i] == 0xFF && file[i + 1] == 0xC0) {
      file[i + 1] = 0xC2;
      break;
    }
  }
  EXPECT_EQ(lepton::encode_jpeg({file.data(), file.size()}).code,
            ExitCode::kProgressive);
}

TEST(LeptonCodec, HostileContainersNeverCrash) {
  auto file = make_jpeg(128, 128, 49);
  auto enc = lepton::encode_jpeg({file.data(), file.size()});
  ASSERT_TRUE(enc.ok());
  lepton::util::Rng rng(50);
  // Bit flips, truncations, and garbage: decode must always return a
  // classified code or (for payload-area flips) wrong-but-bounded bytes.
  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = enc.data;
    int kind = trial % 3;
    if (kind == 0) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    } else if (kind == 1) {
      mutated.resize(rng.below(mutated.size()));
    } else {
      for (int i = 0; i < 16; ++i) {
        mutated[rng.below(mutated.size())] =
            static_cast<std::uint8_t>(rng.below(256));
      }
    }
    lepton::VectorSink sink;
    (void)lepton::decode_lepton({mutated.data(), mutated.size()}, sink);
  }
  SUCCEED();
}

TEST(LeptonCodec, ShortSegmentPayloadReportsOverrun) {
  // Structurally valid container whose *content* is short: keep only a
  // sliver of the segment's payload so its BoolDecoder certainly pops past
  // the end within the first rows. The overrun must reach DecodeStats even
  // though the decode classifies as failed.
  auto jpeg = make_jpeg(192, 160, 1807);
  lepton::EncodeOptions eo;
  eo.force_threads = 1;
  auto enc = lepton::encode_jpeg({jpeg.data(), jpeg.size()}, eo);
  ASSERT_TRUE(enc.ok());
  auto pc = lepton::core::parse_container({enc.data.data(), enc.data.size()});
  ASSERT_EQ(pc.header.segments.size(), 1u);
  ASSERT_GT(pc.arith[0].size(), 16u);
  pc.arith[0].resize(16);
  auto short_lep = lepton::core::serialize_container(pc.header, pc.arith);
  lepton::VectorSink sink;
  lepton::DecodeStats stats;
  ExitCode code = lepton::decode_lepton(
      {short_lep.data(), short_lep.size()}, sink, {},
      lepton::default_context(), &stats);
  // Wrong byte count / classified failure is the expected outcome.
  EXPECT_NE(code, ExitCode::kSuccess);
  EXPECT_TRUE(stats.payload_overrun);
  EXPECT_FALSE(stats.payload_exhausted);
}

// ---- Chunk layer -----------------------------------------------------------

TEST(ChunkCodec, ChunksConcatenateToOriginal) {
  auto file = make_jpeg(640, 640, 51);
  ASSERT_GT(file.size(), 3u * 12000);
  lepton::ChunkCodec cc({}, /*chunk_size=*/12000);  // small chunks: many cuts
  auto set = cc.encode_chunks({file.data(), file.size()});
  ASSERT_TRUE(set.ok()) << set.message;
  ASSERT_GT(set.chunks.size(), 3u);

  std::vector<std::uint8_t> reassembled;
  for (const auto& ch : set.chunks) {
    auto part = cc.decode_chunk({ch.data(), ch.size()});
    ASSERT_TRUE(part.ok());
    reassembled.insert(reassembled.end(), part.data.begin(), part.data.end());
  }
  EXPECT_EQ(reassembled, file);
}

TEST(ChunkCodec, EachChunkDecodesInIsolationAndInAnyOrder) {
  auto file = make_jpeg(512, 768, 52);
  lepton::ChunkCodec cc({}, 16384);
  auto set = cc.encode_chunks({file.data(), file.size()});
  ASSERT_TRUE(set.ok());
  // Decode in reverse order, each chunk standalone (§3.4: client software
  // retrieves each chunk independently).
  std::vector<std::vector<std::uint8_t>> parts(set.chunks.size());
  for (std::size_t i = set.chunks.size(); i-- > 0;) {
    auto r = cc.decode_chunk({set.chunks[i].data(), set.chunks[i].size()});
    ASSERT_TRUE(r.ok());
    lepton::ChunkInfo info;
    ASSERT_EQ(lepton::ChunkCodec::chunk_info(
                  {set.chunks[i].data(), set.chunks[i].size()}, &info),
              ExitCode::kSuccess);
    EXPECT_EQ(info.offset, i * 16384);
    EXPECT_EQ(r.data.size(), info.length);
    EXPECT_TRUE(std::equal(r.data.begin(), r.data.end(),
                           file.begin() + static_cast<std::ptrdiff_t>(
                                              info.offset)));
    parts[i] = std::move(r.data);
  }
}

TEST(ChunkCodec, ChunkBoundaryInsideHeader) {
  // A big COM segment pushes the first chunk boundary inside the header.
  jf::JfifOptions jopt;
  jopt.comment.assign(9000, 0x55);
  auto file = make_jpeg(256, 256, 53, jopt);
  lepton::ChunkCodec cc({}, 4096);
  auto set = cc.encode_chunks({file.data(), file.size()});
  ASSERT_TRUE(set.ok());
  std::vector<std::uint8_t> reassembled;
  for (const auto& ch : set.chunks) {
    auto part = cc.decode_chunk({ch.data(), ch.size()});
    ASSERT_TRUE(part.ok());
    reassembled.insert(reassembled.end(), part.data.begin(), part.data.end());
  }
  EXPECT_EQ(reassembled, file);
}

TEST(ChunkCodec, SavingsCloseToWholeFile) {
  // Chunking costs a little (per-chunk headers, model restarts) but must
  // stay within a few percent of whole-file compression (§4: the deployed
  // system is chunk-by-chunk and still achieves the paper's ratios).
  auto file = make_jpeg(700, 700, 54);
  auto whole = lepton::encode_jpeg({file.data(), file.size()});
  ASSERT_TRUE(whole.ok());
  lepton::ChunkCodec cc({}, 32768);
  auto set = cc.encode_chunks({file.data(), file.size()});
  ASSERT_TRUE(set.ok());
  std::size_t total = 0;
  for (const auto& ch : set.chunks) total += ch.size();
  EXPECT_LT(total, file.size());
  EXPECT_LT(static_cast<double>(total),
            static_cast<double>(whole.data.size()) * 1.10);
}

// ---- Transparent store -----------------------------------------------------

TEST(TransparentStore, AdmitsJpegAsLepton) {
  auto file = make_jpeg(160, 120, 55);
  lepton::TransparentStore store;
  lepton::PutStats stats;
  auto obj = store.put({file.data(), file.size()}, &stats);
  EXPECT_EQ(obj.kind, lepton::StorageKind::kLepton);
  EXPECT_TRUE(stats.roundtrip_ok);
  EXPECT_LT(stats.bytes_out, stats.bytes_in);
  auto back = store.get(obj);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.data, file);
}

TEST(TransparentStore, FallsBackToDeflateForNonJpeg) {
  std::vector<std::uint8_t> text(20000);
  for (std::size_t i = 0; i < text.size(); ++i) {
    text[i] = static_cast<std::uint8_t>("lorem ipsum "[i % 12]);
  }
  lepton::TransparentStore store;
  lepton::PutStats stats;
  auto obj = store.put({text.data(), text.size()}, &stats);
  EXPECT_EQ(obj.kind, lepton::StorageKind::kDeflate);
  EXPECT_EQ(stats.lepton_code, ExitCode::kNotAnImage);
  auto back = store.get(obj);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.data, text);
}

TEST(TransparentStore, ShutoffSwitchSkipsLepton) {
  auto file = make_jpeg(96, 96, 56);
  lepton::TransparentStore store;
  store.set_shutoff(true);  // §5.7: 30-second fleet-wide disable
  lepton::PutStats stats;
  auto obj = store.put({file.data(), file.size()}, &stats);
  EXPECT_EQ(obj.kind, lepton::StorageKind::kDeflate);
  EXPECT_EQ(stats.lepton_code, ExitCode::kServerShutdown);
  EXPECT_EQ(store.get(obj).data, file);
}

TEST(TransparentStore, DetectsPayloadCorruption) {
  auto file = make_jpeg(96, 96, 57);
  lepton::TransparentStore store;
  auto obj = store.put({file.data(), file.size()});
  obj.payload[obj.payload.size() / 2] ^= 0xFF;
  auto back = store.get(obj);
  EXPECT_FALSE(back.ok()) << "md5 gate must catch modified payloads (§5.7)";
}

// ---- Qualification ---------------------------------------------------------

TEST(Qualification, CleanCorpusQualifies) {
  lepton::QualificationRunner runner;
  lepton::QualificationReport rep;
  for (int i = 0; i < 6; ++i) {
    auto file = make_jpeg(100 + 30 * i, 80 + 20 * i, 600 + i);
    runner.run_file({file.data(), file.size()}, &rep);
  }
  EXPECT_EQ(rep.files, 6u);
  EXPECT_EQ(rep.admitted, 6u);
  EXPECT_TRUE(rep.clean());
}

TEST(Qualification, DetectorCatchesInjectedNondeterminism) {
  lepton::QualificationRunner runner;
  runner.set_second_decode_mutator(
      [](std::vector<std::uint8_t>& data) { data[data.size() / 2] ^= 1; });
  lepton::QualificationReport rep;
  auto file = make_jpeg(120, 90, 77);
  runner.run_file({file.data(), file.size()}, &rep);
  EXPECT_EQ(rep.nondeterminism, 1u);
  EXPECT_FALSE(rep.clean());
  EXPECT_FALSE(rep.alerts.empty());
}

TEST(Qualification, RejectionsCountedByExitCode) {
  lepton::QualificationRunner runner;
  lepton::QualificationReport rep;
  std::vector<std::uint8_t> junk = {0xFF, 0xD8, 9, 9, 9};
  runner.run_file({junk.data(), junk.size()}, &rep);
  EXPECT_EQ(rep.rejected, 1u);
  EXPECT_EQ(rep.by_code[static_cast<std::size_t>(ExitCode::kNotAnImage)], 1u);
}

TEST(ChunkCodec, WholeCorpusChunksReassemble) {
  // Integration sweep: every admissible corpus file — including restart
  // markers, grayscale, optimized-Huffman, trailing garbage, concatenated
  // and zero-wiped variants — chunks and reassembles byte-exactly; files
  // Lepton rejects are classified, never mangled.
  lepton::corpus::CorpusOptions copts;
  copts.valid_files = 6;
  copts.min_bytes = 20 << 10;
  copts.max_bytes = 60 << 10;
  auto corpus = lepton::corpus::build_corpus(copts);
  lepton::ChunkCodec cc({}, 8192);
  int admitted = 0, rejected = 0;
  for (const auto& f : corpus) {
    auto set = cc.encode_chunks({f.bytes.data(), f.bytes.size()});
    if (!set.ok()) {
      ++rejected;
      EXPECT_NE(set.code, ExitCode::kSuccess);
      continue;
    }
    std::vector<std::uint8_t> reassembled;
    for (const auto& ch : set.chunks) {
      auto part = cc.decode_chunk({ch.data(), ch.size()});
      ASSERT_TRUE(part.ok()) << f.label;
      reassembled.insert(reassembled.end(), part.data.begin(),
                         part.data.end());
    }
    EXPECT_EQ(reassembled, f.bytes) << f.label;
    ++admitted;
  }
  EXPECT_GT(admitted, 6);  // valid files + round-trippable anomalies
  EXPECT_GT(rejected, 2);  // progressive/CMYK/non-image classified
}

// ---- pipelined encode -------------------------------------------------------
//
// A pool helper precomputes the context-plane rows of a segment that runs
// alone on its context while the segment's thread codes them. The segment
// thread produces rows itself until the helper joins, then hands the rest
// over at a row boundary. The output must be byte-identical to the serial
// loop (run_parallel = false) on every input and segmentation, wherever
// the handover falls.

namespace {

void expect_pipeline_identical(lepton::CodecContext& ctx,
                               const std::vector<std::uint8_t>& jpeg,
                               lepton::EncodeOptions opts,
                               const std::string& what) {
  lepton::EncodeOptions serial = opts;
  serial.run_parallel = false;
  auto want = ctx.encode({jpeg.data(), jpeg.size()}, serial);
  auto got = ctx.encode({jpeg.data(), jpeg.size()}, opts);
  ASSERT_EQ(got.code, want.code) << what;
  ASSERT_EQ(got.data, want.data) << what;
}

}  // namespace

TEST(EncodePipeline, MatchesSerialEncodeOnCorpusWithAnomalies) {
  lepton::corpus::CorpusOptions copt;
  copt.valid_files = 10;
  copt.min_bytes = 20 << 10;
  copt.max_bytes = 160 << 10;
  auto corpus = lepton::corpus::build_corpus(copt);
  lepton::CodecContext ctx(2);
  for (const auto& f : corpus) {
    for (int threads : {0, 1, 2, 4, 8}) {
      lepton::EncodeOptions opts;
      opts.force_threads = threads;
      expect_pipeline_identical(ctx, f.bytes, opts,
                                f.label + " threads " + std::to_string(threads));
    }
  }
  EXPECT_GT(ctx.helped_segments(), 0u) << "no helper ever produced rows";
}

TEST(EncodePipeline, MatchesSerialEncodeAcrossGeometryAndSegments) {
  struct Case {
    int w, h, channels;
    jf::Subsampling sub;
    int rst;
    const char* what;
  };
  // kPlaneRingRows is 4: the short cases publish fewer rows than the ring
  // holds, the tall ones wrap it many times.
  const Case cases[] = {
      {680, 420, 3, jf::Subsampling::k420, 0, "420 quirk rows, tall"},
      {200, 136, 3, jf::Subsampling::k422, 0, "422"},
      {168, 120, 3, jf::Subsampling::k422, 3, "422 with restarts"},
      {200, 136, 3, jf::Subsampling::k444, 0, "444"},
      {120, 90, 1, jf::Subsampling::k444, 0, "grayscale"},
      {104, 88, 3, jf::Subsampling::k420, 7, "420 restart interval 7"},
      {168, 120, 3, jf::Subsampling::k420, 1, "420 restart every MCU"},
      {400, 16, 3, jf::Subsampling::k420, 0, "one MCU row"},
      {240, 40, 3, jf::Subsampling::k420, 0, "three MCU rows"},
      {16, 240, 3, jf::Subsampling::k420, 0, "one MCU column"},
      {8, 400, 3, jf::Subsampling::k444, 0, "one block wide"},
      {8, 8, 3, jf::Subsampling::k444, 0, "single block"},
  };
  lepton::CodecContext ctx(4);
  std::uint64_t seed = 900;
  for (const auto& c : cases) {
    jf::JfifOptions jopt;
    jopt.subsampling = c.sub;
    jopt.restart_interval_mcus = c.rst;
    auto jpeg = make_jpeg(c.w, c.h, seed++, jopt, c.channels);
    for (int threads : {1, 2, 4, 8}) {
      lepton::EncodeOptions opts;
      opts.force_threads = threads;
      expect_pipeline_identical(
          ctx, jpeg, opts, std::string(c.what) + " threads " +
                               std::to_string(threads));
    }
    auto enc = ctx.encode({jpeg.data(), jpeg.size()});
    ASSERT_TRUE(enc.ok()) << c.what;
    auto dec = ctx.decode({enc.data.data(), enc.data.size()});
    ASSERT_TRUE(dec.ok()) << c.what;
    EXPECT_EQ(dec.data, jpeg) << c.what;
  }
  EXPECT_GT(ctx.helped_segments(), 0u) << "no helper ever produced rows";
}

TEST(EncodePipeline, EmptyPoolEncodesSeriallyAndIdentically) {
  lepton::CodecContext empty(0);
  lepton::CodecContext pooled(2);
  for (int i = 0; i < 4; ++i) {
    auto jpeg = make_jpeg(320 + 40 * i, 240, 950 + i);
    for (int threads : {1, 4}) {
      lepton::EncodeOptions opts;
      opts.force_threads = threads;
      auto a = empty.encode({jpeg.data(), jpeg.size()}, opts);
      auto b = pooled.encode({jpeg.data(), jpeg.size()}, opts);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.data, b.data);
      expect_pipeline_identical(empty, jpeg, opts, "empty pool");
    }
  }
  EXPECT_EQ(empty.helped_segments(), 0u);
}

TEST(EncodePipeline, HelperOnlyForASegmentAloneOnItsContext) {
  // Other segments in flight already claim the cores: neither the segments
  // of a multi-segment container nor a segment that shares the context
  // with another request's lease get a helper.
  lepton::CodecContext ctx(2);
  auto jpeg = make_jpeg(480, 320, 955);
  lepton::EncodeOptions two;
  two.force_threads = 2;
  ASSERT_TRUE(ctx.encode({jpeg.data(), jpeg.size()}, two).ok());
  EXPECT_EQ(ctx.helped_segments(), 0u);
  {
    auto other = ctx.acquire_scratch();
    ASSERT_TRUE(ctx.encode({jpeg.data(), jpeg.size()}).ok());
    EXPECT_EQ(ctx.helped_segments(), 0u);
  }
  EXPECT_EQ(ctx.leased_scratch(), 0u);
  {
    // Neither shaped the plane's multi-row ring: one thread needs one row.
    auto a = ctx.acquire_scratch();
    auto b = ctx.acquire_scratch();
    EXPECT_EQ(a->plane().comps[0].ring_rows, 1);
    EXPECT_EQ(b->plane().comps[0].ring_rows, 1);
  }
  // Alone on the context, the segment is offered a helper and its block's
  // plane holds the ring.
  ASSERT_TRUE(ctx.encode({jpeg.data(), jpeg.size()}).ok());
  auto alone = ctx.acquire_scratch();
  EXPECT_EQ(alone->plane().comps[0].ring_rows, lepton::model::kPlaneRingRows);
}

TEST(EncodePipeline, BusyPoolLeavesTheSegmentThreadProducing) {
  // The only worker is busy, so the helper is still queued while the
  // segment thread walks every row: the segment thread produces them all,
  // the serial loop. The stale helper runs after the encode returned,
  // finds its segment finished and touches nothing but its own shared
  // state.
  lepton::CodecContext ctx(1);
  auto jpeg = make_jpeg(480, 320, 960);
  lepton::EncodeOptions serial;
  serial.run_parallel = false;
  auto want = ctx.encode({jpeg.data(), jpeg.size()}, serial);
  ASSERT_TRUE(want.ok());

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  ctx.pool().submit([released] { released.wait(); });
  for (int i = 0; i < 3; ++i) {
    auto got = ctx.encode({jpeg.data(), jpeg.size()});
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.data, want.data);
  }
  EXPECT_EQ(ctx.helped_segments(), 0u);
  release.set_value();
  // The stale helpers drain; later encodes are unaffected by them.
  for (int i = 0; i < 3; ++i) {
    auto got = ctx.encode({jpeg.data(), jpeg.size()});
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.data, want.data);
  }
}

TEST(EncodePipeline, TripMidEncodeTimesOutAndNextEncodeIsIdentical) {
  // A deadline (odd attempts: a cancel from another thread) trips while the
  // segment codes. The encode classifies kTimeout, the helper is stopped
  // and joined before the scratch goes back to the context, and the next
  // encode on the same context is byte-identical. A cancel whose thread
  // only runs after the encode finished trips nothing; the output must
  // then be exact, and the attempt does not count towards the 50 trips.
  jf::JfifOptions jopt;
  jopt.subsampling = jf::Subsampling::k420;
  auto jpeg = make_jpeg(1024, 768, 970, jopt);
  auto jfile = jf::parse_jpeg({jpeg.data(), jpeg.size()});
  auto dec = jf::decode_scan(jfile);
  lepton::EncodeOptions opts;
  opts.force_threads = 1;
  auto plan = lepton::core::plan_whole_file(jfile, dec, opts);
  lepton::CodecContext ctx(2);
  auto want =
      lepton::core::encode_container(jfile, dec, plan, opts, nullptr, ctx);

  // Trips land at a fraction of the fastest untripped encode.
  using Clock = std::chrono::steady_clock;
  auto fastest = Clock::duration::max();
  for (int i = 0; i < 3; ++i) {
    auto t0 = Clock::now();
    lepton::core::encode_container(jfile, dec, plan, opts, nullptr, ctx);
    fastest = std::min(fastest, Clock::now() - t0);
  }

  lepton::util::Rng rng(971);
  int trips = 0;
  for (int attempt = 0; attempt < 200 && trips < 50; ++attempt) {
    lepton::RunControl rc;
    lepton::EncodeOptions tripped = opts;
    tripped.run = &rc;
    auto delay = std::chrono::duration_cast<Clock::duration>(
        fastest * rng.uniform(0.05, 0.5));
    std::thread canceller;
    if (attempt % 2 == 0) {
      rc.set_deadline_after(delay);
    } else {
      canceller = std::thread([&rc, delay] {
        std::this_thread::sleep_for(delay);
        rc.request_cancel();
      });
    }
    try {
      auto out = lepton::core::encode_container(jfile, dec, plan, tripped,
                                                nullptr, ctx);
      EXPECT_EQ(out, want) << "attempt " << attempt;
      EXPECT_EQ(attempt % 2, 1) << "a deadline inside the encode never tripped";
    } catch (const jf::ParseError& e) {
      EXPECT_EQ(e.code(), ExitCode::kTimeout) << "attempt " << attempt;
      ++trips;
    }
    if (canceller.joinable()) canceller.join();
    EXPECT_EQ(lepton::core::encode_container(jfile, dec, plan, opts, nullptr,
                                             ctx),
              want)
        << "attempt " << attempt;
  }
  EXPECT_EQ(trips, 50);
  EXPECT_GT(ctx.helped_segments(), 0u) << "no helper ever produced rows";
  // The helper writes the segment's plane through the segment's lease: a
  // one-segment encode never needs a second scratch block.
  EXPECT_EQ(ctx.scratch_blocks(), 1u);
}
