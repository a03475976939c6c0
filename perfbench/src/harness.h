// Shared machinery of the repository benchmark: clocks, the metric sheet,
// the tail-percentile rule, the Che approximation, in-memory spans with
// self-time accounting, process CPU/RSS probes and the machine fingerprint.
//
// Everything here sits outside the program under test: the benchmark times
// the library only around calls to its public functions.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- percentiles ------------------------------------------------------------

// Linear-interpolated percentile (p in [0, 100]) of `v`; sorts in place.
double percentile(std::vector<double>& v, double p);
double median(std::vector<double> v);
// Index of the sample at the median of `v` (the upper middle one for an
// even count): the representative request of an attribution.
std::size_t median_index(const std::vector<double>& v);

// The highest of the standard tail percentiles (99.9, 99, 95, 90, 75, 50)
// that leaves at least `min_beyond` samples strictly above its rank among
// `n` samples; 0 when even the median is unsupported. A tail latency is
// reported at this percentile at most, so it never rests on fewer than ten
// samples.
double supported_tail_percentile(std::size_t n, std::size_t min_beyond = 10);

// ---- cache model ------------------------------------------------------------

// Che's approximation of the LRU hit rate for independent requests with
// popularities `p` (summing to 1) and a cache holding `capacity` objects:
// solve sum_i (1 - exp(-p_i T)) = capacity for the characteristic time T,
// then hit = sum_i p_i (1 - exp(-p_i T)).
double che_lru_hit_rate(const std::vector<double>& p, double capacity);

// Zipf popularities over n ranks with exponent s (rank 0 most popular).
std::vector<double> zipf_popularities(std::size_t n, double s);

// ---- spans ------------------------------------------------------------------

struct Span {
  std::string name;
  double start_s = 0;  // seconds since the recorder's epoch
  double end_s = 0;
  int parent = -1;     // index into the recorder's span list, -1 = root
  std::uint64_t request = 0;
};

// Keeps spans in memory (thread-safe append) and writes them out at exit.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}
  double now() const { return seconds_between(epoch_, Clock::now()); }
  // Appends a finished span and returns its index (for children's parent).
  int add(Span s);
  std::vector<Span> spans() const;
  // One JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// A span's self time is its duration minus the part of its interval that
// its direct children cover (overlapping children are merged, and a child
// is clipped to its parent). Returns one value per span, same order.
std::vector<double> self_times(const std::vector<Span>& spans);

// One row of a p50 attribution: layer name and self time (ms).
struct AttributionRow {
  std::string layer;
  double self_ms = 0;
};

// A layer of the representative request: its time, and the (name, ms) of
// the calls nested in it.
struct LayerNode {
  std::string name;
  double ms = 0;
  std::vector<std::pair<std::string, double>> children;
};

// Builds the representative request's span tree — a root `total_ms` long
// with `layers` laid end to end under it, each layer's children laid end to
// end inside it — computes self times with self_times(), and returns one
// row per span plus a final "unattributed" row holding the root's self
// time. A span that overruns its parent is clipped, so the rows always sum
// to total_ms.
std::vector<AttributionRow> attribute(double total_ms,
                                      const std::vector<LayerNode>& layers);

// "attribution <what> p50 <ms> = <layer> <ms> ..." for a report line,
// noting how far `layers` overran the request when they had to be clipped.
std::string attribution_note(const std::string& workload, double total_ms,
                             const std::vector<LayerNode>& layers,
                             const std::vector<AttributionRow>& rows);

// ---- process probes ---------------------------------------------------------

// Process user+sys CPU seconds (getrusage: covers client and server
// threads alike, since both run in this process).
double process_cpu_seconds();
// Machine-wide CPU seconds stolen by the hypervisor so far (/proc/stat):
// other tenants' load, reported next to each loop so noisy runs show.
double machine_steal_seconds();
// Current resident set size in MB (/proc/self/statm).
double current_rss_mb();

// Watches the machine while a loop runs: samples RSS every few
// milliseconds (keeping the peak) and reads the CPU the hypervisor stole
// from this machine at start and stop.
class LoopMonitor {
 public:
  LoopMonitor();
  ~LoopMonitor() { stop(); }
  LoopMonitor(const LoopMonitor&) = delete;
  LoopMonitor& operator=(const LoopMonitor&) = delete;

  Clock::time_point start() const { return start_; }
  // Ends sampling; call once the loop's threads have joined.
  void stop();
  double peak_rss_mb() const { return peak_.load(); }
  double steal_s() const { return steal1_ - steal0_; }

 private:
  Clock::time_point start_;
  double steal0_ = 0, steal1_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<double> peak_{0};
  std::thread thread_;  // declared last: it reads the members above
};

// ---- results ----------------------------------------------------------------

// Metric name -> (value, unit), printed in name order.
class MetricSheet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  // {"name": {"value": v, "unit": "u"}, ...} with full precision.
  std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> m_;
};

// JSON string escaping for the handful of free-text fields we emit.
std::string json_escape(const std::string& s);

// CPU model, nproc, SIMD levels, compiler, build type, commit — one JSON
// object for the report line that precedes the result.
std::string fingerprint_json(const std::string& commit);

// Closed-loop client threads (and connections) of every workload.
inline constexpr int kClients = 4;

}  // namespace perfbench
