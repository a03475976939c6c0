// Production workload model (§5.4) and the §5 replay generator.
//
// Calibrated from every number the paper publishes: ~5 fleet-wide encodes/s
// at the Thursday peak, decode:encode ratio ≈ 1.5 on weekdays and ≈ 1.0 on
// weekends (users shoot as much on weekends but sync/view less), a diurnal
// cycle peaking in the (UTC) evening, and file sizes averaging ~1.5 MB.
//
// The replay half feeds examples/workload_replay.cpp: Zipf-skewed object
// popularity (Xu et al., arXiv:1912.11145 — photo reads are heavily
// skewed and time-varying), read timestamps following the fig05 weekly
// decode-rate shape, and a fig11-style backfill ramp for the ingest phase.
// Everything draws from an explicitly seeded Rng, so a replay replays.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace lepton::storage {

inline constexpr double kHour = 3600.0;
inline constexpr double kDay = 24 * kHour;
inline constexpr double kWeek = 7 * kDay;

struct WorkloadModel {
  double peak_encode_rate = 5.0;  // fleet-wide encodes/s at weekday peak
  double weekday_decode_ratio = 1.5;
  double weekend_decode_ratio = 1.0;

  // t = seconds since Monday 00:00 UTC.
  static bool is_weekend(double t) {
    int day = static_cast<int>(std::fmod(t, kWeek) / kDay);
    return day >= 5;
  }

  // Smooth diurnal shape in [0.35, 1.0], peaking around 19:00.
  static double diurnal(double t) {
    double hour = std::fmod(t, kDay) / kHour;
    return 0.675 + 0.325 * std::sin((hour - 13.0) * 2 * M_PI / 24.0);
  }

  double encode_rate(double t) const {
    // Uploads are similar on weekends (§5.4: "users tend to produce the
    // same number of photos").
    return peak_encode_rate * diurnal(t);
  }

  double decode_rate(double t) const {
    double ratio = is_weekend(t) ? weekend_decode_ratio : weekday_decode_ratio;
    return encode_rate(t) * ratio;
  }

  // File size distribution: log-normal clamped to (0, 4 MiB], mean ≈ 1.5 MB
  // (§5.6.1: "images sized at an average of 1.5 MB each").
  double sample_file_mb(util::Rng& rng) const {
    double v = std::exp(rng.normal(0.05, 0.7));
    return v > 4.0 ? 4.0 : (v < 0.02 ? 0.02 : v);
  }
};

// Zipf(n, s) rank sampler by inverse CDF over a precomputed table: rank r
// (0-based, 0 = hottest) is drawn with probability (r+1)^-s / H_{n,s}.
// Exact, deterministic, O(log n) per sample; the table costs 8 bytes/rank
// (a 1M-object replay pays 8 MB once).
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s) : cdf_(n > 0 ? n : 1) {
    double acc = 0;
    for (std::uint64_t r = 0; r < cdf_.size(); ++r) {
      acc += std::pow(static_cast<double>(r + 1), -s);
      cdf_[r] = acc;
    }
    for (auto& v : cdf_) v /= acc;
  }

  std::uint64_t sample(util::Rng& rng) const {
    double u = rng.uniform();
    // First rank whose CDF is > u.
    std::uint64_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      std::uint64_t mid = (lo + hi) / 2;
      if (cdf_[mid] > u) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  std::uint64_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

// Draws read timestamps (seconds since Monday 00:00) distributed like the
// fig05 weekly decode-rate shape: the week is bucketed hourly, each
// bucket's mass ∝ decode_rate at its midpoint, and a draw picks a bucket
// by inverse CDF then a uniform offset within it.
class WeeklyShapeSampler {
 public:
  explicit WeeklyShapeSampler(const WorkloadModel& model = {},
                              double span_s = kWeek)
      : span_s_(span_s), bucket_s_(kHour), cdf_(bucket_count()) {
    double acc = 0;
    for (std::size_t b = 0; b < cdf_.size(); ++b) {
      double mid = (static_cast<double>(b) + 0.5) * bucket_s_;
      acc += model.decode_rate(mid);
      cdf_[b] = acc;
    }
    for (auto& v : cdf_) v /= acc;
  }

  double sample(util::Rng& rng) const {
    double u = rng.uniform();
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] > u) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    double base = static_cast<double>(lo) * bucket_s_;
    double top = std::min(span_s_, base + bucket_s_);
    return rng.uniform(base, top);
  }

 private:
  std::size_t bucket_count() const {
    auto n = static_cast<std::size_t>(span_s_ / bucket_s_);
    return n > 0 ? n : 1;
  }

  double span_s_;
  double bucket_s_;
  std::vector<double> cdf_;
};

// fig11 backfill ramp: the paper rolled backfill in gradually (compression
// runs as a background job whose rate was stepped up as confidence grew).
// Maps backfill progress p ∈ [0,1] to the simulated day it lands on, for a
// ramp that doubles the daily rate each day until steady state at
// `ramp_days`: day(p) is the inverse of the cumulative-rate curve.
inline double backfill_day_of_progress(double p, double ramp_days,
                                       double total_days) {
  if (p <= 0) return 0;
  if (p >= 1) return total_days;
  if (ramp_days <= 0 || total_days <= ramp_days) return p * total_days;
  // Cumulative work: ramp phase contributes ramp_days/2 day-equivalents
  // (linear ramp 0→full rate), steady phase 1/day after that.
  double total_work = ramp_days / 2 + (total_days - ramp_days);
  double w = p * total_work;
  if (w < ramp_days / 2) return std::sqrt(2 * w * ramp_days);  // inside ramp
  return ramp_days + (w - ramp_days / 2);
}

// One simulated access in a replay stream.
struct ReplayOp {
  enum class Kind : std::uint8_t { kPut, kGet } kind = Kind::kGet;
  std::uint64_t object = 0;  // object id in [0, objects)
  double t = 0;              // simulated seconds since Monday 00:00
};

struct ReplayConfig {
  std::uint64_t objects = 1'000'000;  // distinct simulated objects
  std::uint64_t reads = 1'200'000;    // Zipf-skewed gets after the backfill
  double zipf_s = 0.99;
  double backfill_ramp_days = 2.0;  // fig11-style ramp-up window
  double backfill_days = 5.0;       // total simulated ingest span
  double read_span_s = kWeek;       // fig05 weekly shape spanned by reads
  std::uint64_t seed = 11945;       // arXiv:1912.11145
};

// Deterministic op-stream generator: first every object is backfilled once
// (kPut, timestamps following the fig11 ramp), then `reads` Zipf-ranked
// kGet ops land with fig05-shaped timestamps. Zipf rank r reads object r —
// the ring hashes keys, so the hot head still spreads across shards.
class ReplayGen {
 public:
  explicit ReplayGen(ReplayConfig cfg)
      : cfg_(cfg),
        rng_(cfg.seed),
        zipf_(cfg.objects, cfg.zipf_s),
        shape_(WorkloadModel{}, cfg.read_span_s) {}

  // False once the stream is exhausted.
  bool next(ReplayOp* op) {
    if (put_emitted_ < cfg_.objects) {
      op->kind = ReplayOp::Kind::kPut;
      op->object = put_emitted_;
      double p = static_cast<double>(put_emitted_ + 1) /
                 static_cast<double>(cfg_.objects);
      op->t = kDay * backfill_day_of_progress(p, cfg_.backfill_ramp_days,
                                              cfg_.backfill_days);
      ++put_emitted_;
      return true;
    }
    if (get_emitted_ < cfg_.reads) {
      op->kind = ReplayOp::Kind::kGet;
      op->object = zipf_.sample(rng_);
      op->t = shape_.sample(rng_);
      ++get_emitted_;
      return true;
    }
    return false;
  }

  const ReplayConfig& config() const { return cfg_; }

 private:
  ReplayConfig cfg_;
  util::Rng rng_;
  ZipfSampler zipf_;
  WeeklyShapeSampler shape_;
  std::uint64_t put_emitted_ = 0;
  std::uint64_t get_emitted_ = 0;
};

}  // namespace lepton::storage
