// Encode-side context plane (the staged encode pipeline's middle stage).
//
// On encode every model context is a pure function of ground-truth
// coefficients — the ring state the decoder must reconstruct serially is
// already known. This module precomputes, for a whole block row at a time,
// everything the adaptive-coder loop consults per block: the 7x7 nonzero
// count and its tree bucket, the edge nonzero counts, the weighted
// neighbour-magnitude bucket of all 64 coefficients (SIMD, scan_simd.h
// kernels), the Lakhani (or averaged-neighbour) edge prediction buckets,
// and the DC prediction + confidence bucket. The serial loop then does
// nothing but feed the BoolEncoder (model/block_codec.h).
//
// Bit-exactness contract: every field equals what the per-block reference
// path derives from its context rings — the plane path and the reference
// path produce byte-identical streams (fuzzed in tests/context_plane_test).
// Storage is owned by CodecContext worker scratch and re-shaped per
// segment: no steady-state allocation.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "jpeg/dct.h"
#include "jpeg/jpeg_types.h"
#include "jpeg/parser.h"
#include "jpeg/scan_simd.h"
#include "model/model.h"
#include "model/predictors.h"
#include "util/tracked_memory.h"

namespace lepton::model {

// Per-component Lakhani basis with the quantization step folded in
// ([row] tables index [u][v], [col] tables [v][u]).
//
// (An AVX2 vpmuldq version of the edge dot products was tried and measured
// a net loss here — the per-call int16→int64 widening and horizontal
// reduction cost more than the ~15 scalar multiplies they replace, which
// GCC already schedules well. The folded tables keep the scalar loop at
// one multiply per term; see DESIGN.md "what didn't pay".)
struct EdgeTables {
  std::int64_t bq7_row[8][8];
  std::int64_t bq0_row[8][8];
  std::int64_t bq7_col[8][8];
  std::int64_t bq0_col[8][8];
};

// Folds the quantization table into the Lakhani basis rows once per
// segment: the edge predictor then spends one multiply per term instead of
// two, on a path that runs for every edge coefficient.
inline void build_edge_tables(EdgeTables& t, const std::uint16_t* q) {
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      t.bq7_row[u][v] = jpegfmt::dct_basis_q20(7, v) * q[u * 8 + v];
      t.bq0_row[u][v] = jpegfmt::dct_basis_q20(0, v) * q[u * 8 + v];
      t.bq7_col[v][u] = jpegfmt::dct_basis_q20(7, u) * q[u * 8 + v];
      t.bq0_col[v][u] = jpegfmt::dct_basis_q20(0, u) * q[u * 8 + v];
    }
  }
}

// Requantize a Lakhani numerator and bucket it: m = bit length of
// |pred| / q (truncating), clamped to 8 — the magnitude half of
// signed_pred_bucket without materializing the quotient's sign walk.
// bit_width(a / qq) is exactly the shift-walk count the reference used
// (a >= qq<<k  ⟺  floor(a/qq) >= 2^k); the fuzz tests pin the identity.
inline int lakhani_num_bucket(std::int64_t num, std::uint32_t qq) {
  std::int64_t pred_dq = num / jpegfmt::dct_basis_q20(0, 0);
  std::uint64_t a = pred_dq < 0 ? static_cast<std::uint64_t>(-pred_dq)
                                : static_cast<std::uint64_t>(pred_dq);
  if (qq == 0) qq = 1;
  int m = std::bit_width(a / qq);
  if (m > 8) m = 8;
  return pred_dq < 0 ? 8 - m : 8 + m;
}

// Fast Lakhani path: same continuity solve as
// model::lakhani_edge_prediction, but with the quantization table folded
// into the basis rows (one multiply per term) and the final requantization
// division replaced by the bucket mapping above — the prediction is only
// ever consumed as a bucket. Differs from the reference at round-to-nearest
// boundaries only; encode and decode share it, so symmetry holds.
// `neighbor` is the adjacent block's 64 coefficients (natural order), null
// when absent (predict 0 → bucket 8).
inline int lakhani_pred_bucket(const EdgeTables& t, int orientation, int index,
                               const std::int16_t* cur,
                               const std::int16_t* neighbor,
                               const std::uint16_t* q) {
  if (neighbor == nullptr) return 8;  // no context: predict 0
  std::int64_t num = 0;
  std::uint32_t qq;
  if (orientation == 0) {
    const int u = index;
    for (int v = 0; v < 8; ++v) {
      num += t.bq7_row[u][v] * neighbor[u * 8 + v];
    }
    for (int v = 1; v < 8; ++v) {
      num -= t.bq0_row[u][v] * cur[u * 8 + v];
    }
    qq = q[u * 8];
  } else {
    const int v = index;
    for (int u = 0; u < 8; ++u) {
      num += t.bq7_col[v][u] * neighbor[u * 8 + v];
    }
    for (int u = 1; u < 8; ++u) {
      num -= t.bq0_col[v][u] * cur[u * 8 + v];
    }
    qq = q[v];
  }
  return lakhani_num_bucket(num, qq);
}

// Every bucket and count the serial coder loop consults for one block,
// fully resolved by the precompute stage. Magnitude buckets live in a
// separate row plane (ComponentPlane::mag) written by the bulk kernel pass.
struct BlockCtx {
  std::int16_t dc_pred;          // clamped DC prediction
  std::uint8_t nz77;             // truth nonzero count, 7x7 interior
  std::uint8_t nz_ctx;           // bucket for the 6-bit count tree
  std::uint8_t edge_ctx;         // nz77 bucket for the 3-bit edge trees
  std::uint8_t dc_conf;          // DC confidence bucket
  std::uint8_t edge_count[2];    // truth nonzero counts, 7x1 / 1x7
  std::uint8_t pb[2][8];         // edge prediction bucket, [orientation][1..7]
};

// Final pixels (8x-scaled) adjacent to later blocks, the DC-gradient
// context — same layout as BlockState's px_bottom/px_right.
struct PlanePx {
  std::array<std::int32_t, 16> bottom;  // rows 6,7: [row-6][x] flattened
  std::array<std::int32_t, 16> right;   // cols 6,7: [y][col-6] flattened
};

// MCU rows of precomputed context a pipelined segment's plane holds at
// once: the ring that lets a producer run ahead of the coder loop
// (lepton/codec.cpp pipelines the two across threads). A segment coded by
// one thread needs one slot. Row `my` lives in slot `my % ring_rows`.
inline constexpr int kPlaneRingRows = 4;

// Per-component plane state, in two parts.
//
// Producer state (written only by the precompute): the |coefficient| rows
// keep a *three*-deep ring (indexed by `by % 3`), because computing an even
// row's magnitude buckets under the above-left quirk needs rows by-1, by
// and by+1 live at once. Counts and edge pixels roll two rows (`by & 1`),
// exactly like the codec's context rings. `nzm` holds the nonzero masks of
// the MCU row being precomputed.
//
// Published rows (written by the precompute, read by the coder loop): the
// magnitude-bucket and BlockCtx rows of `ring_rows` MCU rows, each slot
// plane-laid-out per sub-row ([sy*wb + bx] within the slot).
struct ComponentPlane {
  util::tracked_vector<std::uint16_t> abs[3];  // width_blocks * 64
  std::vector<std::uint8_t> nz[2];             // width_blocks
  util::tracked_vector<PlanePx> px[2];         // width_blocks
  std::vector<std::uint64_t> nzm;              // v_samp rows * wb masks
  util::tracked_vector<std::uint8_t> mag;      // ring slots * slot_blocks * 64
  util::tracked_vector<BlockCtx> ctx;          // ring slots * slot_blocks
  std::size_t slot_blocks = 0;                 // v_samp rows * wb
  int ring_rows = 1;                           // 1 or kPlaneRingRows

  // First block of MCU row `my`'s ring slot.
  std::size_t slot_base(int my) const {
    return static_cast<std::size_t>(my % ring_rows) * slot_blocks;
  }
};

struct ContextPlane {
  std::vector<ComponentPlane> comps;

  // Re-shapes to the frame geometry with a ring of `ring_rows` published
  // MCU rows, growing each buffer at most once per context lifetime
  // (vectors keep capacity across segments/files).
  void reshape(const jpegfmt::FrameInfo& fr, int ring_rows = 1) {
    comps.resize(fr.comps.size());
    for (std::size_t c = 0; c < fr.comps.size(); ++c) {
      auto wb = static_cast<std::size_t>(fr.comps[c].width_blocks);
      auto rows = static_cast<std::size_t>(fr.comps[c].v_samp);
      ComponentPlane& cp = comps[c];
      for (int r = 0; r < 3; ++r) cp.abs[r].resize(wb * 64);
      for (int r = 0; r < 2; ++r) {
        cp.nz[r].resize(wb);
        cp.px[r].resize(wb);
      }
      cp.nzm.resize(rows * wb);
      cp.slot_blocks = rows * wb;
      cp.ring_rows = ring_rows;
      const auto slots = static_cast<std::size_t>(ring_rows);
      cp.mag.resize(slots * cp.slot_blocks * 64);
      cp.ctx.resize(slots * cp.slot_blocks);
    }
  }
};

namespace detail {

// Shared all-zero magnitude row for absent neighbours: the kernel then has
// no validity branches per lane (same trick as the reference path's
// kZeroBlock).
alignas(32) inline constexpr std::uint16_t kZeroAbs[64] = {};

}  // namespace detail

// ---- Precompute stages ------------------------------------------------------
//
// Stage A (plane_abs_row): |coefficients| + per-block nonzero masks for one
// whole block row, one streaming kernel call (the CoeffImage stores a block
// row contiguously). Stage B (plane_context_row): bulk magnitude-bucket
// pass over the row's parallel (above, left, above-left) magnitude streams,
// per-block fix-ups only where a neighbour is absent or the ring quirk
// applies, then the per-block scalar tail (count buckets, gated Lakhani,
// DC prediction, rolling pixels).
//
// The above-left quirk: the reference path's two-row context ring is
// shared with the MCU interleave, so with v_samp == 2 block (bx-1, by+1)
// is coded *before* (bx, by) whenever bx % h_samp == 0 — by coding time
// the ring's above-left slot already holds the BELOW-left block. Encoder
// and decoder share the ring, so this is part of the byte stream; the
// plane reproduces it exactly (see DESIGN.md). It is why the abs ring is
// three-deep: an even row's bucket pass touches rows by-1, by and by+1.
//
// Header-inline on purpose: this is the encode pipeline's bulk stage, and
// inlining it into the instantiating TU keeps it fused with the coder loop
// (a cold out-of-line copy measured ~50% slower purely from code
// placement on the dev box).

// Stage A: fills cp.abs[by % 3] and the `nzm_row` masks (one uint64 per
// block, natural-order bit per nonzero coefficient) from block row `by`.
inline void plane_abs_row(ComponentPlane& cp, std::uint64_t* nzm_row,
                          const jpegfmt::ComponentCoeffs& cc, int by,
                          const jpegfmt::simd::ContextKernels& kernels) {
  kernels.abs_nz_row(cc.block(0, by), cc.width_blocks,
                     cp.abs[static_cast<std::size_t>(by % 3)].data(), nzm_row);
}

// Stage B for block row `by`. Requires stage A for `by`, for `by - 1` when
// `above_valid`, and for `by + 1` when the quirk rows apply (v_samp == 2,
// even `by` > 0). `above_valid` says whether the row above was coded in
// this segment (a segment start behaves like the top of the image). Writes
// `out_row`/`mag_row` and the row's rolling state.
inline void plane_context_row(ComponentPlane& cp, BlockCtx* out_row,
                              std::uint8_t* mag_row,
                              const std::uint64_t* nzm_row,
                              const jpegfmt::ComponentCoeffs& cc, int by,
                              bool above_valid, int h_samp, int v_samp,
                              const EdgeTables& et,
                              const std::uint16_t* q, const ModelOptions& opts,
                              const jpegfmt::simd::ContextKernels& kernels) {
  namespace simd = jpegfmt::simd;
  const int wb = cc.width_blocks;
  const std::uint16_t* abs_cur =
      cp.abs[static_cast<std::size_t>(by % 3)].data();
  const std::uint16_t* abs_prev =
      cp.abs[static_cast<std::size_t>((by + 2) % 3)].data();
  const std::uint16_t* abs_next =
      cp.abs[static_cast<std::size_t>((by + 1) % 3)].data();
  std::uint8_t* nz_cur = cp.nz[by & 1].data();
  const std::uint8_t* nz_prev = cp.nz[(by - 1) & 1].data();
  PlanePx* px_cur = cp.px[by & 1].data();
  const PlanePx* px_prev = cp.px[(by - 1) & 1].data();

  // ---- bulk magnitude-bucket pass + fix-up lanes ----
  const bool quirk_row = v_samp == 2 && (by & 1) == 0 && by > 0;
  if (above_valid) {
    // Blocks 1..wb-1 as three parallel streams (above / left / above-left
    // are the same plane shifted by one row and/or one block). For
    // h_samp == 1 quirk rows, every block's above-left is the below-left —
    // one stream swap handles the whole row.
    const std::uint16_t* al_stream =
        quirk_row && h_samp == 1 ? abs_next : abs_prev;
    kernels.mag_buckets_row(abs_prev + 64, abs_cur, al_stream, mag_row + 64,
                            static_cast<std::size_t>(wb - 1) * 64);
    kernels.mag_buckets(abs_prev, detail::kZeroAbs, detail::kZeroAbs, mag_row);
    if (quirk_row && h_samp == 2) {
      // Every even-bx block's above-left is the below-left block.
      for (int bx = 2; bx < wb; bx += 2) {
        kernels.mag_buckets(abs_prev + static_cast<std::size_t>(bx) * 64,
                            abs_cur + static_cast<std::size_t>(bx - 1) * 64,
                            abs_next + static_cast<std::size_t>(bx - 1) * 64,
                            mag_row + static_cast<std::size_t>(bx) * 64);
      }
    }
  } else {
    // First row of a segment: no above context anywhere; the quirk
    // below-left is still live when the row is not the top of the image.
    kernels.mag_buckets(detail::kZeroAbs, detail::kZeroAbs, detail::kZeroAbs,
                        mag_row);
    for (int bx = 1; bx < wb; ++bx) {
      const std::uint16_t* al =
          quirk_row && bx % h_samp == 0
              ? abs_next + static_cast<std::size_t>(bx - 1) * 64
              : detail::kZeroAbs;
      kernels.mag_buckets(detail::kZeroAbs,
                          abs_cur + static_cast<std::size_t>(bx - 1) * 64, al,
                          mag_row + static_cast<std::size_t>(bx) * 64);
    }
  }

  // ---- per-block scalar tail ----
  for (int bx = 0; bx < wb; ++bx) {
    const std::int16_t* truth = cc.block(bx, by);
    BlockCtx& bc = out_row[bx];
    const bool left_valid = bx > 0;
    const bool al_valid = above_valid && left_valid;
    const std::uint64_t nzmask = nzm_row[bx];

    int nz77 = std::popcount(nzmask & simd::kInteriorMask);
    bc.nz77 = static_cast<std::uint8_t>(nz77);
    bc.edge_count[0] =
        static_cast<std::uint8_t>(std::popcount(nzmask & simd::kColEdgeMask));
    bc.edge_count[1] =
        static_cast<std::uint8_t>(std::popcount(nzmask & simd::kRowEdgeMask));
    nz_cur[bx] = bc.nz77;

    int na = above_valid ? nz_prev[bx] : 0;
    int nl = left_valid ? nz_cur[bx - 1] : 0;
    bc.nz_ctx = static_cast<std::uint8_t>(nz_count_bucket((na + nl) / 2));
    int ec = nz_count_bucket(nz77);
    bc.edge_ctx = static_cast<std::uint8_t>(ec > 7 ? 7 : ec);

    // ---- edge prediction buckets ----
    //
    // The coder loop consumes pb[or][i] only for i = 1..(last nonzero edge
    // position) — it stops the moment the coded nonzero count is
    // exhausted. Computing exactly that prefix keeps the plane's Lakhani
    // work equal to the reference path's (sparse blocks: zero dot
    // products).
    std::uint64_t colbits = nzmask & simd::kColEdgeMask;
    std::uint64_t rowbits = nzmask & simd::kRowEdgeMask;
    int last_i[2];
    last_i[0] = colbits != 0 ? (63 - std::countl_zero(colbits)) / 8 : 0;
    last_i[1] = rowbits != 0 ? 63 - std::countl_zero(rowbits) : 0;
    const std::int16_t* above_truth =
        above_valid ? cc.block(bx, by - 1) : nullptr;
    const std::int16_t* left_truth =
        left_valid ? cc.block(bx - 1, by) : nullptr;
    if (opts.lakhani_edges) {
      for (int i = 1; i <= last_i[0]; ++i) {
        bc.pb[0][i] = static_cast<std::uint8_t>(
            lakhani_pred_bucket(et, 0, i, truth, left_truth, q));
      }
      for (int i = 1; i <= last_i[1]; ++i) {
        bc.pb[1][i] = static_cast<std::uint8_t>(
            lakhani_pred_bucket(et, 1, i, truth, above_truth, q));
      }
    } else {
      const bool al_quirk = quirk_row && left_valid && bx % h_samp == 0;
      const std::int16_t* al_truth =
          al_quirk ? cc.block(bx - 1, by + 1)
                   : (al_valid ? cc.block(bx - 1, by - 1) : nullptr);
      for (int orientation = 0; orientation < 2; ++orientation) {
        for (int i = 1; i <= last_i[orientation]; ++i) {
          int nat = orientation == 0 ? i * 8 : i;
          std::int32_t predicted =
              avg_neighbor_value_at(above_truth, left_truth, al_truth, nat);
          if (predicted > 1023) predicted = 1023;
          if (predicted < -1023) predicted = -1023;
          bc.pb[orientation][i] =
              static_cast<std::uint8_t>(signed_pred_bucket(predicted));
        }
      }
    }

    // ---- DC prediction + rolling pixel edges ----
    std::int32_t px_ac[64];
    ac_only_pixels(truth, q, px_ac);
    DcPrediction pred;
    if (opts.dc_gradient) {
      pred = predict_dc_gradient_edges(
          above_valid ? px_prev[bx].bottom.data() : nullptr,
          left_valid ? px_cur[bx - 1].right.data() : nullptr, px_ac, q);
    } else {
      pred = predict_dc_simple_vals(above_truth, left_truth);
    }
    if (pred.predicted_dc > 2047) pred.predicted_dc = 2047;
    if (pred.predicted_dc < -2048) pred.predicted_dc = -2048;
    bc.dc_pred = static_cast<std::int16_t>(pred.predicted_dc);
    bc.dc_conf = static_cast<std::uint8_t>(confidence_bucket(pred.spread));

    // Same arithmetic as finalize_block_pixels: a DC of d (quantized)
    // shifts every 8x-scaled sample by exactly d*q00.
    std::int32_t shift = static_cast<std::int32_t>(truth[0]) * q[0];
    PlanePx& px = px_cur[bx];
    for (int x = 0; x < 8; ++x) {
      px.bottom[static_cast<std::size_t>(x)] = px_ac[6 * 8 + x] + shift;
      px.bottom[static_cast<std::size_t>(8 + x)] = px_ac[7 * 8 + x] + shift;
    }
    for (int y = 0; y < 8; ++y) {
      px.right[static_cast<std::size_t>(y * 2 + 0)] = px_ac[y * 8 + 6] + shift;
      px.right[static_cast<std::size_t>(y * 2 + 1)] = px_ac[y * 8 + 7] + shift;
    }
  }
}

// Precomputes every component block row of MCU row `my` into its ring
// slot: stage A for all sub-rows first (an even quirk row's bucket pass
// reads the next row's magnitudes), then stage B in row order (sub-row
// sy=1 reads sy=0's rolling state). `any_row_coded` = whether an MCU row
// was precomputed since the segment start (the first row's blocks have no
// "above" context). Rows must come in order within a segment: the rolling
// state carries from one to the next. `et` points at one EdgeTables per
// component. This is the single wiring of the stages — SegmentCodec's
// plane path and the precompute bench both drive it, so the bench measures
// exactly what the encoder runs.
inline void precompute_mcu_row(ContextPlane& plane,
                               const jpegfmt::JpegFile& jf,
                               const jpegfmt::CoeffImage& source, int my,
                               bool any_row_coded, const EdgeTables* et,
                               const ModelOptions& opts,
                               const jpegfmt::simd::ContextKernels& kernels) {
  const auto& fr = jf.frame;
  for (int ci = 0; ci < fr.ncomp(); ++ci) {
    const auto& comp = fr.comps[ci];
    ComponentPlane& cp = plane.comps[static_cast<std::size_t>(ci)];
    const auto& cc = source.comps[static_cast<std::size_t>(ci)];
    const std::uint16_t* q = jf.qtables[comp.quant_idx].q.data();
    const int v_samp = fr.ncomp() == 1 ? 1 : comp.v_samp;
    const auto wb = static_cast<std::size_t>(cc.width_blocks);
    for (int sy = 0; sy < v_samp; ++sy) {
      plane_abs_row(cp, cp.nzm.data() + static_cast<std::size_t>(sy) * wb, cc,
                    my * v_samp + sy, kernels);
    }
    for (int sy = 0; sy < v_samp; ++sy) {
      const std::size_t at = cp.slot_base(my) + static_cast<std::size_t>(sy) * wb;
      plane_context_row(cp, cp.ctx.data() + at, cp.mag.data() + at * 64,
                        cp.nzm.data() + static_cast<std::size_t>(sy) * wb, cc,
                        my * v_samp + sy, sy > 0 || any_row_coded, comp.h_samp,
                        v_samp, et[static_cast<std::size_t>(ci)], q, opts,
                        kernels);
    }
  }
}

}  // namespace lepton::model
