// Container planning: maps a byte range of the original file onto verbatim
// sections + re-encodable MCU-row segments with Huffman handover words.
//
// This is where the paper's two distribution requirements meet the format:
//  * thread segments within a container (§3.4 "within chunks, parallel
//    decoding"), and
//  * 4-MiB storage chunks that decode with no access to other chunks
//    (§3 "distribution across independent chunks").
//
// A chunk boundary rarely lands on an MCU-row boundary; the bytes between
// the chunk start and the first row boundary inside it are carried verbatim
// as segment "prepend" data (§A.1 "arbitrary data to prepend"), and the
// last segment's output is trimmed to the chunk end.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "jpeg/parser.h"
#include "jpeg/scan_decoder.h"
#include "lepton/codec.h"
#include "lepton/format.h"
#include "model/block_codec.h"

namespace lepton::core {

struct ContainerPlan {
  bool is_chunk = false;
  std::uint64_t file_total_size = 0;
  std::uint64_t chunk_off = 0;
  std::uint64_t chunk_len = 0;
  std::uint64_t prefix_off = 0;  // range into the JPEG header bytes
  std::uint64_t prefix_len = 0;
  std::vector<std::uint8_t> suffix;
  std::vector<SegmentHeader> segments;
};

// Plans the container for original-file byte range [begin, end).
ContainerPlan plan_byte_range(const jpegfmt::JpegFile& jf,
                              const jpegfmt::ScanDecodeResult& dec,
                              std::uint64_t begin, std::uint64_t end,
                              const EncodeOptions& opts, bool is_chunk);

// Whole file as a single container.
ContainerPlan plan_whole_file(const jpegfmt::JpegFile& jf,
                              const jpegfmt::ScanDecodeResult& dec,
                              const EncodeOptions& opts);

// Encodes one planned container on `ctx`'s pool and scratch (implemented
// in codec.cpp). Segment workers poll `opts.run` at MCU-row granularity;
// a trip throws jpegfmt::ParseError(kTimeout).
std::vector<std::uint8_t> encode_container(
    const jpegfmt::JpegFile& jf, const jpegfmt::ScanDecodeResult& dec,
    const ContainerPlan& plan, const EncodeOptions& opts,
    model::SectionTally* tally, CodecContext& ctx);

// ---- shared decode driver ---------------------------------------------------
//
// DecodeSession (session.h) and the whole-buffer decode path are built from
// the same three pieces below, so there is exactly one segment-decode code
// path regardless of how the container bytes arrived.

// In-order streaming assembler for parallel segment output (§3.4: separate
// threads each write their own segment, which is concatenated and sent).
// Completion is tracked with one flag per segment — any segment count the
// format layer admits (kMaxSegments) works; the flags are only touched
// under the mutex.
class OrderedEmitter {
 public:
  OrderedEmitter(ByteSink& sink, std::size_t n)
      : sink_(sink), pending_(n), completed_(n, 0) {}

  void submit(std::size_t seg, std::span<const std::uint8_t> bytes) {
    std::lock_guard<std::mutex> lk(mu_);
    if (seg == live_) {
      sink_.append(bytes);
    } else {
      pending_[seg].insert(pending_[seg].end(), bytes.begin(), bytes.end());
    }
  }

  void complete(std::size_t seg) {
    std::lock_guard<std::mutex> lk(mu_);
    completed_[seg] = 1;
    while (live_ < pending_.size() && completed_[live_] != 0) {
      ++live_;
      if (live_ < pending_.size() && !pending_[live_].empty()) {
        sink_.append({pending_[live_].data(), pending_[live_].size()});
        pending_[live_].clear();
      }
    }
  }

 private:
  ByteSink& sink_;
  std::mutex mu_;
  std::size_t live_ = 0;
  std::vector<std::vector<std::uint8_t>> pending_;
  std::vector<std::uint8_t> completed_;  // one flag per segment
};

// Payload-consumption facts accumulated across a container's segments
// (aggregated into lepton::DecodeStats at the end of a decode).
struct DecodeRunFlags {
  std::atomic<bool> overran{false};
  std::atomic<bool> leftover{false};
  std::atomic<std::uint64_t> payload_bytes{0};
  std::atomic<std::uint64_t> payload_consumed{0};

  void fill(DecodeStats* stats) const {
    if (stats == nullptr) return;
    stats->payload_overrun = overran.load();
    stats->payload_exhausted = !overran.load() && !leftover.load();
    stats->payload_bytes = payload_bytes.load();
    stats->payload_consumed = payload_consumed.load();
  }
};

// Parses the container's embedded JPEG header, validates the segment row
// ranges against it, and enforces the §6.2 ">24 MiB mem decode" budget.
// Throws jpegfmt::ParseError on violation. Runs before any output byte is
// emitted — a session fails a hostile header the moment it arrives, before
// the arithmetic payload has even been fetched.
jpegfmt::JpegFile validate_container_decode(const ContainerHeader& h);

// Decodes one segment of `h` from its arithmetic stream, submitting its
// prepend bytes and re-encoded rows to `em` under index `local` and always
// marking `local` complete (success or failure — in-order emission never
// wedges). Polls `rc` every MCU row; a trip classifies as kTimeout.
// Returns kSuccess or the classified failure; never throws.
util::ExitCode decode_one_segment(const ContainerHeader& h,
                                  const jpegfmt::JpegFile& hdr,
                                  std::span<const std::uint8_t> arith,
                                  std::size_t seg, CodecContext& ctx,
                                  OrderedEmitter& em, std::size_t local,
                                  DecodeRunFlags* flags, const RunControl* rc);

// Decodes segments [first, h.segments.size()) into `sink` in order, on
// `ctx`'s pool when opts.run_parallel (the calling thread participates).
// Segments before `first` must already have been emitted by the caller
// (DecodeSession decodes them eagerly as their streams complete). Returns
// the first classified failure, kSuccess otherwise.
util::ExitCode decode_segment_range(
    const ContainerHeader& h, const jpegfmt::JpegFile& hdr,
    const std::vector<std::vector<std::uint8_t>>& arith, std::size_t first,
    ByteSink& sink, const DecodeOptions& opts, CodecContext& ctx,
    DecodeRunFlags* flags);

// Decodes one parsed container into `sink` (implemented in codec.cpp).
// Throws jpegfmt::ParseError with a §6.2 classification on failure.
// `stats` (optional) reports payload-consumption facts.
void decode_container(const ParsedContainer& pc, ByteSink& sink,
                      const DecodeOptions& opts, CodecContext& ctx,
                      DecodeStats* stats = nullptr);

}  // namespace lepton::core
