#include "lepton/codec.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "jpeg/parser.h"
#include "jpeg/scan_decoder.h"
#include "jpeg/scan_encoder.h"
#include "lepton/context.h"
#include "lepton/plan.h"
#include "lepton/session.h"
#include "model/block_codec.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"
#include "util/tracked_memory.h"

namespace lepton {
namespace {

using util::ExitCode;

// Decode working-set estimate for the §6.2 ">24 MiB mem decode" gate: one
// model copy plus two context rows per component, per segment.
std::size_t decode_working_set(const jpegfmt::JpegFile& hdr,
                               std::size_t segments) {
  std::size_t rings = 0;
  for (const auto& comp : hdr.frame.comps) {
    rings += static_cast<std::size_t>(comp.width_blocks) * 2 *
             sizeof(model::BlockState);
  }
  return segments * (sizeof(model::ProbabilityModel) + rings);
}

}  // namespace

int threads_for_size(std::size_t bytes, int max_threads) {
  int t;
  if (bytes < 128u << 10) {
    t = 1;
  } else if (bytes < 512u << 10) {
    t = 2;
  } else if (bytes < 3u << 20) {
    t = 4;
  } else {
    t = 8;
  }
  return t < max_threads ? t : (max_threads < 1 ? 1 : max_threads);
}

namespace core {

using EncodeCodec = model::SegmentCodec<coding::EncodeOps>;

// The encode pipeline of one segment (DESIGN.md §4 "The encode helper:
// two threads per segment"): a pool helper precomputes the segment's MCU
// rows into the context plane's ring (EncodeCodec::precompute_row) while
// the segment's own thread codes each row once it is published
// (code_planned_row).
//
// The segment thread produces rows itself, the serial loop, until the
// helper has joined; at the next row boundary it hands the producer role
// over, once, and from then on only codes. Every row is produced exactly
// once, so a busy or empty pool leaves the serial loop and does no extra
// work. Heap-owned and shared with the helper task, which may start long
// after the segment has finished; a helper that arrives too late touches
// nothing but this object. A friend of CodecContext: a handover is what
// CodecContext::helped_segments() counts.
class RowPipeline {
 public:
  RowPipeline(CodecContext& ctx, const EncodeCodec& codec,
              const jpegfmt::CoeffImage& source, std::uint32_t start_row,
              std::uint32_t rows)
      : ctx_(ctx),
        codec_(codec),
        source_(source),
        start_row_(start_row),
        rows_(rows) {}

  // The helper task: joins, waits for the handover row, then publishes
  // rows in order, at most kPlaneRingRows ahead of the coder, until every
  // row is out or the segment thread closes the pipeline.
  void produce() {
    int alone = kAlone;
    if (!joined_.compare_exchange_strong(alone, kJoined,
                                         std::memory_order_acq_rel)) {
      return;  // the segment already finished
    }
    std::uint32_t from = handover_.load(std::memory_order_acquire);
    while (from == kNoRow) {
      handover_.wait(kNoRow, std::memory_order_acquire);
      from = handover_.load(std::memory_order_acquire);
    }
    if (from != kClosed) run_from(from);
    done_.store(true, std::memory_order_release);
    done_.notify_one();
  }

  // Segment thread, before producing row `i` (counted from the segment
  // start) itself: when the helper has joined, hands it the producer role
  // from row `i` on and returns true.
  bool hand_over(std::uint32_t i) {
    if (joined_.load(std::memory_order_acquire) != kJoined) return false;
    coded_.store(i, std::memory_order_relaxed);  // published by the release
    handover_.store(i, std::memory_order_release);
    handover_.notify_one();
    ctx_.helped_segments_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Blocks until row `i` is published.
  void await_row(std::uint32_t i) {
    std::uint32_t p = published_.load(std::memory_order_acquire);
    while (p <= i) {
      published_.wait(p, std::memory_order_acquire);
      p = published_.load(std::memory_order_acquire);
    }
  }

  // Frees row `i`'s ring slot for the producer.
  void row_coded(std::uint32_t i) {
    coded_.store(i + 1, std::memory_order_release);
    coded_.notify_one();
  }

  // Called on every exit of the segment thread (success, timeout or
  // exception): a helper that has not joined never will, and one that has
  // is stopped and waited for, so it no longer touches the codec, the
  // source or the scratch plane when this returns.
  void close() {
    int alone = kAlone;
    if (joined_.compare_exchange_strong(alone, kFinished,
                                        std::memory_order_acq_rel)) {
      return;
    }
    coded_.store(kClosed, std::memory_order_release);
    coded_.notify_one();
    std::uint32_t none = kNoRow;
    if (handover_.compare_exchange_strong(none, kClosed,
                                          std::memory_order_acq_rel)) {
      handover_.notify_one();
    }
    done_.wait(false, std::memory_order_acquire);
  }

 private:
  enum : int { kAlone, kJoined, kFinished };
  static constexpr std::uint32_t kClosed = ~std::uint32_t{0};
  static constexpr std::uint32_t kNoRow = kClosed - 1;
  static constexpr auto kRing =
      static_cast<std::uint32_t>(model::kPlaneRingRows);

  void run_from(std::uint32_t from) {
    for (std::uint32_t i = from; i < rows_; ++i) {
      std::uint32_t coded = coded_.load(std::memory_order_acquire);
      while (coded != kClosed && i - coded >= kRing) {
        coded_.wait(coded, std::memory_order_acquire);  // ring full
        coded = coded_.load(std::memory_order_acquire);
      }
      if (coded == kClosed) return;
      codec_.precompute_row(static_cast<int>(start_row_ + i), source_, i == 0);
      published_.store(i + 1, std::memory_order_release);
      published_.notify_one();
    }
  }

  CodecContext& ctx_;
  const EncodeCodec& codec_;
  const jpegfmt::CoeffImage& source_;
  const std::uint32_t start_row_;
  const std::uint32_t rows_;
  std::atomic<int> joined_{kAlone};
  std::atomic<std::uint32_t> handover_{kNoRow};  // first helper row
  std::atomic<std::uint32_t> published_{0};  // rows published
  std::atomic<std::uint32_t> coded_{0};      // rows coded, or kClosed
  std::atomic<bool> done_{false};            // joined helper has stopped
};

std::vector<std::uint8_t> encode_container(const jpegfmt::JpegFile& jf,
                                           const jpegfmt::ScanDecodeResult& dec,
                                           const ContainerPlan& plan,
                                           const EncodeOptions& opts,
                                           model::SectionTally* tally,
                                           CodecContext& ctx) {
  ContainerHeader h;
  h.is_chunk = plan.is_chunk;
  h.file_total_size = plan.file_total_size;
  h.chunk_off = plan.chunk_off;
  h.chunk_len = plan.chunk_len;
  h.scan_begin_abs = jf.scan_begin;
  h.pad_bit = dec.pad_bit;
  h.rst_count = dec.rst_count;
  h.model = opts.model;
  h.jpeg_header.assign(jf.header_bytes().begin(), jf.header_bytes().end());
  h.prefix_off = plan.prefix_off;
  h.prefix_len = plan.prefix_len;
  h.suffix = plan.suffix;
  h.segments = plan.segments;

  const RunControl* rc = opts.run;
  const std::size_t nseg = plan.segments.size();
  // One scratch lease per segment, held until the container is serialized:
  // each segment's arithmetic output lives in its scratch buffer and is
  // passed to the serializer as a view.
  std::vector<CodecContext::ScratchLease> leases;
  leases.reserve(nseg);
  for (std::size_t i = 0; i < nseg; ++i) {
    leases.push_back(ctx.acquire_scratch());
  }
  std::vector<std::span<const std::uint8_t>> arith(nseg);
  std::atomic<int> error_code{-1};
  auto encode_segment = [&](int i, bool tripped) {
    try {
      if (tripped) {
        // The session's deadline/cancel tripped before this segment started
        // (sampled at dispatch in CodecContext::parallel_run): do no work.
        throw jpegfmt::ParseError(ExitCode::kTimeout,
                                  "session cancelled before segment start");
      }
      const auto& seg = plan.segments[static_cast<std::size_t>(i)];
      CodecScratch& scratch = *leases[static_cast<std::size_t>(i)];
      coding::BoolEncoder enc(&scratch.arith_buffer());
      EncodeCodec codec(coding::EncodeOps{&enc}, scratch.model(), jf,
                        opts.model, &scratch.rings());
      if (tally != nullptr && nseg == 1) {
        codec.set_tally(tally);
      }
      // A helper is offered only to a segment that runs alone on the
      // context: other segments in flight (this container's, or other
      // requests') already claim the cores, and a helper sharing a core
      // with them slowed saturated serving down. Only such a segment gets
      // the plane's multi-row ring. The helper is offered before the model
      // reset, so a worker has that long to wake and join before the
      // first row. Serial runs, the reference path and the Fig 4 tally run
      // keep the one-thread loop.
      const bool offer_helper = opts.use_context_plane && opts.run_parallel &&
                                tally == nullptr && ctx.pool().size() > 0 &&
                                ctx.leased_scratch() == 1;
      if (opts.use_context_plane) {
        codec.attach_plane(&scratch.plane(),
                           offer_helper ? model::kPlaneRingRows : 1);
      }
      std::shared_ptr<RowPipeline> pipe;
      if (offer_helper) {
        pipe = std::make_shared<RowPipeline>(ctx, codec, dec.coeffs,
                                             seg.start_row,
                                             seg.end_row - seg.start_row);
        ctx.pool().submit([pipe] { pipe->produce(); });
      }
      struct CloseOnExit {
        RowPipeline* p;
        ~CloseOnExit() {
          if (p != nullptr) p->close();
        }
      } close_on_exit{pipe.get()};
      scratch.reset_model();
      bool helped = false;  // the helper produces the remaining rows
      for (std::uint32_t row = seg.start_row; row < seg.end_row; ++row) {
        if (rc != nullptr && rc->tripped()) {
          throw jpegfmt::ParseError(ExitCode::kTimeout,
                                    "session deadline tripped mid-encode");
        }
        const std::uint32_t nth = row - seg.start_row;
        if (!helped && pipe != nullptr && pipe->hand_over(nth)) {
          helped = true;
        }
        if (helped) {
          pipe->await_row(nth);
          codec.code_planned_row(static_cast<int>(row), dec.coeffs);
          pipe->row_coded(nth);
        } else {
          codec.code_mcu_row(static_cast<int>(row), &dec.coeffs);
        }
      }
      enc.finish_into_buffer();
      arith[static_cast<std::size_t>(i)] = {scratch.arith_buffer().data(),
                                            scratch.arith_buffer().size()};
    } catch (const jpegfmt::ParseError& e) {
      error_code.store(static_cast<int>(e.code()));
    } catch (...) {
      error_code.store(static_cast<int>(ExitCode::kImpossible));
    }
  };
  ctx.parallel_run(static_cast<int>(nseg), opts.run_parallel, rc,
                   encode_segment);
  if (error_code.load() >= 0) {
    throw jpegfmt::ParseError(static_cast<ExitCode>(error_code.load()),
                              "segment encode failed");
  }
  return serialize_container(h, arith);
}

jpegfmt::JpegFile validate_container_decode(const ContainerHeader& h) {
  jpegfmt::JpegFile hdr = jpegfmt::parse_jpeg_header(
      {h.jpeg_header.data(), h.jpeg_header.size()});

  // Structural validation against the (attacker-controlled) header.
  for (const auto& seg : h.segments) {
    if (seg.end_row > static_cast<std::uint32_t>(hdr.frame.mcus_y)) {
      throw jpegfmt::ParseError(ExitCode::kNotAnImage, "segment row range");
    }
  }
  // §6.2 ">24 MiB mem decode" gate, one unit per segment. The per-thread
  // budget applies to the §5.4 maximum of 16 threads at most — a hostile
  // header cannot scale the allowance (and with it the scratch it makes us
  // allocate) by declaring thousands of segments.
  const std::size_t units = std::max<std::size_t>(h.segments.size(), 1);
  // Failpoint "codec.mem_gate": a fired schedule shrinks the budget to
  // zero — every allocation-gated decode then classifies kMemLimitDecode,
  // exercising the §6.2 refusal without a hostile container.
  const bool gate_tripped =
      util::failpoint::armed() &&
      util::failpoint::hit("codec.mem_gate").fired();
  if (gate_tripped ||
      decode_working_set(hdr, units) >
          (24ull << 20) * std::min<std::size_t>(units, 16)) {
    throw jpegfmt::ParseError(ExitCode::kMemLimitDecode,
                              "decode working set exceeds budget");
  }
  return hdr;
}

util::ExitCode decode_one_segment(const ContainerHeader& h,
                                  const jpegfmt::JpegFile& hdr,
                                  std::span<const std::uint8_t> arith,
                                  std::size_t i, CodecContext& ctx,
                                  OrderedEmitter& em, std::size_t local,
                                  DecodeRunFlags* flags,
                                  const RunControl* rc) {
  ExitCode code = ExitCode::kSuccess;
  try {
    const auto& seg = h.segments[i];
    // Leased inside the task (unlike encode, which must keep every
    // segment's output buffer alive until serialization): live scratch
    // is bounded by pool concurrency, not by the attacker-controlled
    // segment count.
    CodecContext::ScratchLease lease = ctx.acquire_scratch();
    CodecScratch& scratch = *lease;
    scratch.reset_model();
    if (!seg.prepend.empty()) {
      em.submit(local, {seg.prepend.data(), seg.prepend.size()});
    }
    jpegfmt::HuffmanHandover ho = seg.handover;
    std::uint64_t produced = 0;
    jpegfmt::ScanEncodeParams p;
    p.pad_bit = h.pad_bit;
    p.rst_count_limit = h.rst_count;
    p.final_segment = false;
    std::vector<std::uint8_t>& row_bytes = scratch.row_buffer();
    coding::BoolDecoder bd({arith.data(), arith.size()});
    model::SegmentCodec<coding::DecodeOps> codec(coding::DecodeOps{&bd},
                                                 scratch.model(), hdr,
                                                 h.model, &scratch.rings());
    // Direct lambda into the template entry point: the per-block ring
    // lookup inlines into the re-encode MCU loop (an std::function there
    // is an indirect call per block of every decode).
    auto source = [&codec](int comp, int bx, int by) {
      return codec.row_block(comp, bx, by);
    };
    auto record = [&flags, &bd] {
      if (flags == nullptr) return;
      if (bd.overran()) flags->overran.store(true);
      if (!bd.exhausted()) flags->leftover.store(true);
      flags->payload_bytes.fetch_add(bd.available());
      flags->payload_consumed.fetch_add(bd.consumed());
    };
    try {
      for (std::uint32_t row = seg.start_row;
           row < seg.end_row && produced < seg.out_len; ++row) {
        if (rc != nullptr && rc->tripped()) {
          throw jpegfmt::ParseError(ExitCode::kTimeout,
                                    "session deadline tripped mid-decode");
        }
        codec.code_mcu_row(static_cast<int>(row), nullptr);
        p.start_mcu_row = static_cast<int>(row);
        p.end_mcu_row = static_cast<int>(row) + 1;
        p.handover = ho;
        jpegfmt::encode_scan_rows_with(hdr, source, p, &ho, &row_bytes);
        std::size_t take = row_bytes.size();
        if (produced + take > seg.out_len) {
          take = static_cast<std::size_t>(seg.out_len - produced);
        }
        em.submit(local, {row_bytes.data(), take});
        produced += take;
      }
    } catch (...) {
      // Re-encoding garbage rows (truncated/hostile streams) can throw
      // mid-loop; the consumption facts must still reach the validation
      // layers, which use them to classify the truncation.
      record();
      throw;
    }
    record();
    if (produced != seg.out_len) {
      throw jpegfmt::ParseError(ExitCode::kNotAnImage,
                                "segment produced wrong byte count");
    }
  } catch (const jpegfmt::ParseError& e) {
    code = e.code();
  } catch (...) {
    code = ExitCode::kImpossible;
  }
  em.complete(local);
  return code;
}

util::ExitCode decode_segment_range(
    const ContainerHeader& h, const jpegfmt::JpegFile& hdr,
    const std::vector<std::vector<std::uint8_t>>& arith, std::size_t first,
    ByteSink& sink, const DecodeOptions& opts, CodecContext& ctx,
    DecodeRunFlags* flags) {
  const std::size_t nseg = h.segments.size();
  if (first >= nseg) return ExitCode::kSuccess;
  const RunControl* rc = opts.run;
  OrderedEmitter emitter(sink, nseg - first);
  std::atomic<int> error_code{-1};
  auto run = [&](int k, bool tripped) {
    std::size_t seg = first + static_cast<std::size_t>(k);
    ExitCode code;
    if (tripped) {
      // Sampled at dispatch: a tripped session's unstarted segments are
      // classified without leasing scratch or touching the payload.
      code = ExitCode::kTimeout;
      emitter.complete(static_cast<std::size_t>(k));
    } else {
      code = decode_one_segment(h, hdr, {arith[seg].data(), arith[seg].size()},
                                seg, ctx, emitter,
                                static_cast<std::size_t>(k), flags, rc);
    }
    if (code != ExitCode::kSuccess) {
      error_code.store(static_cast<int>(code));
    }
  };
  ctx.parallel_run(static_cast<int>(nseg - first), opts.run_parallel, rc, run);
  return error_code.load() >= 0 ? static_cast<ExitCode>(error_code.load())
                                : ExitCode::kSuccess;
}

}  // namespace core

// ---- one-shot wrappers ------------------------------------------------------
//
// Every whole-buffer entry point below is a feed-everything wrapper over the
// streaming sessions (session.h): one codec driver, two calling conventions.

Result encode_jpeg(std::span<const std::uint8_t> jpeg,
                   const EncodeOptions& opts) {
  return encode_jpeg(jpeg, opts, default_context());
}

Result encode_jpeg(std::span<const std::uint8_t> jpeg,
                   const EncodeOptions& opts, CodecContext& ctx) {
  EncodeSession session(opts, &ctx);
  session.feed(jpeg);
  Result r;
  VectorSink sink;
  r.code = session.finish(sink);
  r.message = session.message();
  if (r.ok()) r.data = std::move(sink.data);
  return r;
}

Result encode_jpeg_with_breakdown(std::span<const std::uint8_t> jpeg,
                                  const EncodeOptions& opts,
                                  ComponentBreakdown* breakdown) {
  if (breakdown == nullptr) return encode_jpeg(jpeg, opts);
  Result r;
  try {
    auto jf = jpegfmt::parse_jpeg(jpeg);
    auto dec = jpegfmt::decode_scan(jf);
    EncodeOptions eopts = opts;
    eopts.force_threads = 1;
    auto plan = core::plan_whole_file(jf, dec, eopts);
    model::SectionTally tally;
    r.data = core::encode_container(jf, dec, plan, eopts, &tally,
                                    default_context());
    breakdown->header_in = jf.scan_begin + (jpeg.size() - jf.trailing_begin) +
                           (jf.has_eoi ? 2 : 0) + dec.trailing_scan.size();
    // Compressed header cost ≈ container minus arithmetic payload.
    std::uint64_t arith_total =
        tally.bytes_77 + tally.bytes_edge + tally.bytes_dc;
    breakdown->header_out =
        r.data.size() > arith_total ? r.data.size() - arith_total : 0;
    breakdown->dc_in_bits = dec.stats.bits_dc;
    breakdown->dc_out_bits = tally.bytes_dc * 8;
    breakdown->ac77_in_bits =
        dec.stats.bits_ac77 + dec.stats.bits_overhead;  // EOB/ZRL ride along
    breakdown->ac77_out_bits = tally.bytes_77 * 8;
    breakdown->edge_in_bits = dec.stats.bits_edge;
    breakdown->edge_out_bits = tally.bytes_edge * 8;
  } catch (const jpegfmt::ParseError& e) {
    r.code = e.code();
    r.message = e.what();
  } catch (const std::exception& e) {
    r.code = ExitCode::kImpossible;
    r.message = e.what();
  }
  return r;
}

util::ExitCode decode_lepton(std::span<const std::uint8_t> lep, ByteSink& sink,
                             const DecodeOptions& opts) {
  return decode_lepton(lep, sink, opts, default_context(), nullptr);
}

util::ExitCode decode_lepton(std::span<const std::uint8_t> lep, ByteSink& sink,
                             const DecodeOptions& opts, CodecContext& ctx,
                             DecodeStats* stats) {
  DecodeSession session(sink, opts, &ctx);
  session.feed(lep);
  return session.finish(stats);
}

Result decode_lepton(std::span<const std::uint8_t> lep,
                     const DecodeOptions& opts) {
  Result r;
  VectorSink sink;
  r.code = decode_lepton(lep, sink, opts);
  r.data = std::move(sink.data);
  return r;
}

}  // namespace lepton
