// Long-lived codec execution context (§5.1, §5.4).
//
// Production Lepton runs as a daemon: worker threads are spawned once —
// before SECCOMP forbids clone() — and every model-sized buffer is
// allocated once and reused for the life of the process. CodecContext is
// that daemon's state made explicit: it owns a persistent util::ThreadPool
// for segment fan-out and encode helpers, plus a pool of per-worker
// scratch blocks, each holding a ProbabilityModel (reset by memset, never
// reallocated), a capacity-reserved arithmetic output buffer, a Huffman
// row re-encode buffer, the two-row context rings and the encode-side
// context plane. An encode helper precomputes context-plane rows while a
// segment that runs alone on the context codes them; a pool of 0 workers
// keeps every encode serial. Repeated encode/decode calls
// through one context perform no model-sized heap allocations after
// warm-up; a test asserts this via the tracked_memory counters.
//
// The free functions encode_jpeg/decode_lepton route through a process-wide
// default context, so casual callers get the reuse for free; servers that
// want isolation (or several pools) construct their own.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "lepton/codec.h"
#include "lepton/run_control.h"
#include "model/block_codec.h"
#include "model/model.h"
#include "util/thread_pool.h"
#include "util/tracked_memory.h"

namespace lepton {

// One worker's reusable working set. Not thread-safe; a scratch block is
// leased to exactly one segment job at a time.
class CodecScratch {
 public:
  CodecScratch() : model_(1) {}

  // The probability model. A segment binds it into its codec, then calls
  // reset_model() before coding the first row (encode overlaps that reset
  // with its helper's start-up).
  model::ProbabilityModel& model() { return model_[0]; }

  // Returns the model to the 50-50 prior. The first reset after
  // construction is skipped (construction zeroed it).
  void reset_model() {
    if (used_) model_[0].reset();
    used_ = true;
  }

  // Per-segment arithmetic output (encode) — cleared by BoolEncoder, grows
  // once to the largest segment seen.
  std::vector<std::uint8_t>& arith_buffer() { return arith_buf_; }

  // Per-row Huffman re-encode output (decode).
  std::vector<std::uint8_t>& row_buffer() { return row_buf_; }

  // Context-row rings for SegmentCodec.
  model::SegmentRings& rings() { return rings_; }

  // Encode-side context-plane scratch (rolling magnitude/pixel rows plus
  // a ring of precomputed MCU rows: one row for a serial segment,
  // kPlaneRingRows for one offered a helper), re-shaped per segment, grown
  // once. A segment's encode helper writes it through the segment's lease;
  // it leases no block of its own.
  model::ContextPlane& plane() { return plane_; }

 private:
  // Allocated through the tracker: the per-worker model copies are what
  // the Figure 3 memory accounting counts (§4.2).
  util::tracked_vector<model::ProbabilityModel> model_;
  bool used_ = false;  // model reset since construction?
  std::vector<std::uint8_t> arith_buf_;
  std::vector<std::uint8_t> row_buf_;
  model::SegmentRings rings_;
  model::ContextPlane plane_;
};

namespace core {
class RowPipeline;  // the encode helper (codec.cpp)
}  // namespace core

class CodecContext {
 public:
  // `workers` is the pre-spawned thread count (the paper's production
  // daemon uses the §5.4 maximum of 8; the calling thread participates in
  // batches, so `workers` == 0 still works, serially).
  explicit CodecContext(int workers = 8);

  CodecContext(const CodecContext&) = delete;
  CodecContext& operator=(const CodecContext&) = delete;

  util::ThreadPool& pool() { return pool_; }

  // Segment fan-out bound to a session's RunControl: runs fn(i, tripped)
  // for i in [0, n) on the pool (the calling thread participates, as in
  // ThreadPool::parallel_run). `tripped` is the control's state sampled at
  // dispatch — a segment of a cancelled/expired session observes it before
  // doing any work and fails fast as kTimeout, so one tripped session stops
  // scheduling real work without affecting other sessions sharing this
  // context. `rc` may be null (never tripped). When `parallel` is false the
  // same dispatch runs as a serial loop on the calling thread.
  template <typename Fn>
  void parallel_run(int n, bool parallel, const RunControl* rc, Fn&& fn) {
    auto dispatch = [rc, &fn](int i) {
      fn(i, rc != nullptr && rc->tripped());
    };
    if (parallel) {
      pool_.parallel_run(n, dispatch);
    } else {
      for (int i = 0; i < n; ++i) dispatch(i);
    }
  }

  // RAII lease of a scratch block; returns it to the context on destruction.
  class ScratchLease {
   public:
    ScratchLease() = default;
    ScratchLease(CodecContext* ctx, std::unique_ptr<CodecScratch> s)
        : ctx_(ctx), s_(std::move(s)) {}
    ScratchLease(ScratchLease&&) = default;
    ScratchLease& operator=(ScratchLease&&) = default;
    ~ScratchLease() {
      if (ctx_ != nullptr && s_ != nullptr) ctx_->release(std::move(s_));
    }
    CodecScratch* operator->() { return s_.get(); }
    CodecScratch& operator*() { return *s_; }

   private:
    CodecContext* ctx_ = nullptr;
    std::unique_ptr<CodecScratch> s_;
  };

  // Hands out a free scratch block, allocating a new one only when every
  // existing block is leased (so the pool converges on the peak segment
  // concurrency and stays there).
  ScratchLease acquire_scratch();

  // How many scratch blocks exist (leased + free); test/bench visibility
  // into the warm-up behaviour.
  std::size_t scratch_blocks() const;

  // How many scratch blocks are leased right now: the codec segments in
  // flight on this context, encode and decode.
  std::size_t leased_scratch() const;

  // How many encode segments had their context-plane rows produced by a
  // pool helper rather than by the serial loop (test/bench visibility into
  // the encode pipeline). Only the encoder's core::RowPipeline counts.
  std::uint64_t helped_segments() const {
    return helped_segments_.load(std::memory_order_relaxed);
  }

  // Convenience entry points bound to this context.
  Result encode(std::span<const std::uint8_t> jpeg,
                const EncodeOptions& opts = {});
  util::ExitCode decode(std::span<const std::uint8_t> lep, ByteSink& sink,
                        const DecodeOptions& opts = {},
                        DecodeStats* stats = nullptr);
  Result decode(std::span<const std::uint8_t> lep,
                const DecodeOptions& opts = {});

 private:
  friend class core::RowPipeline;

  void release(std::unique_ptr<CodecScratch> s);

  util::ThreadPool pool_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<CodecScratch>> free_;
  std::size_t total_blocks_ = 0;
  std::size_t leased_ = 0;
  std::atomic<std::uint64_t> helped_segments_{0};
};

// The process-wide context behind the free encode_jpeg/decode_lepton
// functions. Created on first use, lives for the process (the daemon
// lifetime of §5.1).
CodecContext& default_context();

}  // namespace lepton
