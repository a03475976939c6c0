#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/cpu_features.h"

namespace perfbench {

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

double median(std::vector<double> v) { return percentile(v, 50); }

std::size_t median_index(const std::vector<double>& v) {
  std::vector<std::size_t> ix(v.size());
  for (std::size_t i = 0; i < ix.size(); ++i) ix[i] = i;
  auto mid = ix.begin() + static_cast<std::ptrdiff_t>(ix.size() / 2);
  std::nth_element(ix.begin(), mid, ix.end(),
                   [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  return *mid;
}

double supported_tail_percentile(std::size_t n, std::size_t min_beyond) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n == 0) break;
    // Samples strictly above the interpolation rank of p.
    double rank = p / 100.0 * static_cast<double>(n - 1);
    auto beyond = n - 1 - static_cast<std::size_t>(std::ceil(rank));
    if (beyond >= min_beyond) return p;
  }
  return 0;
}

std::vector<double> zipf_popularities(std::size_t n, double s) {
  std::vector<double> p(n);
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
    total += p[i];
  }
  for (double& x : p) x /= total;
  return p;
}

double che_lru_hit_rate(const std::vector<double>& p, double capacity) {
  if (capacity <= 0) return 0;
  if (capacity >= static_cast<double>(p.size())) return 1;
  auto occupancy = [&](double t) {
    double s = 0;
    for (double pi : p) s += 1 - std::exp(-pi * t);
    return s;
  };
  double lo = 0, hi = 1;
  while (occupancy(hi) < capacity) hi *= 2;
  for (int i = 0; i < 200; ++i) {
    double mid = (lo + hi) / 2;
    (occupancy(mid) < capacity ? lo : hi) = mid;
  }
  double hit = 0;
  for (double pi : p) hit += pi * (1 - std::exp(-pi * hi));
  return hit;
}

int SpanRecorder::add(Span s) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[64];
  for (const Span& s : spans()) {
    out << "{\"name\":\"" << json_escape(s.name) << "\"";
    std::snprintf(buf, sizeof(buf), "%.9f", s.start_s);
    out << ",\"start_s\":" << buf;
    std::snprintf(buf, sizeof(buf), "%.9f", s.end_s);
    out << ",\"end_s\":" << buf << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(out);
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& par = spans[static_cast<std::size_t>(s.parent)];
    double a = std::max(s.start_s, par.start_s);
    double b = std::min(s.end_s, par.end_s);
    if (b > a) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_a = 0, cur_b = -1;
    for (auto [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    out[i] = (spans[i].end_s - spans[i].start_s) - covered;
  }
  return out;
}

std::vector<AttributionRow> attribute(double total_ms,
                                      const std::vector<LayerNode>& layers) {
  std::vector<Span> spans;
  spans.push_back({"unattributed", 0, total_ms, -1, 0});
  double at = 0;
  for (const LayerNode& l : layers) {
    double end = std::min(total_ms, at + std::max(0.0, l.ms));
    int parent = static_cast<int>(spans.size());
    spans.push_back({l.name, at, end, 0, 0});
    double cat = at;
    for (const auto& [name, ms] : l.children) {
      double cend = std::min(end, cat + std::max(0.0, ms));
      spans.push_back({name, cat, cend, parent, 0});
      cat = cend;
    }
    at = end;
  }
  std::vector<double> self = self_times(spans);
  std::vector<AttributionRow> rows;
  for (std::size_t i = 1; i < spans.size(); ++i) rows.push_back({spans[i].name, self[i]});
  rows.push_back({spans[0].name, self[0]});
  return rows;
}

std::string attribution_note(const std::string& workload, double total_ms,
                             const std::vector<LayerNode>& layers,
                             const std::vector<AttributionRow>& rows) {
  std::ostringstream o;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "attribution %s p50 %.3f ms =", workload.c_str(),
                total_ms);
  o << buf;
  for (const auto& r : rows) {
    std::snprintf(buf, sizeof(buf), " %s %.3f", r.layer.c_str(), r.self_ms);
    o << buf;
  }
  double sum = 0;
  for (const auto& l : layers) sum += l.ms;
  if (sum > total_ms) {
    std::snprintf(buf, sizeof(buf), " (layers overran by %.3f ms, clipped)", sum - total_ms);
    o << buf;
  }
  return o.str();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double machine_steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  return v[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double current_rss_mb() {
  std::ifstream in("/proc/self/statm");
  long pages = 0, resident = 0;
  in >> pages >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         1e6;
}

LoopMonitor::LoopMonitor() : start_(Clock::now()) {
  peak_ = current_rss_mb();
  steal0_ = steal1_ = machine_steal_seconds();
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      double r = current_rss_mb();
      if (r > peak_.load()) peak_ = r;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

void LoopMonitor::stop() {
  if (!thread_.joinable()) return;
  stop_ = true;
  thread_.join();
  steal1_ = machine_steal_seconds();
}

void MetricSheet::set(const std::string& name, double value,
                      const std::string& unit) {
  m_[name] = {value, unit};
}

std::string MetricSheet::json() const {
  std::ostringstream o;
  char buf[64];
  const char* sep = "";
  o << "{";
  for (const auto& [name, vu] : m_) {
    double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    o << sep << "\"" << json_escape(name) << "\": {\"value\": " << buf
      << ", \"unit\": \"" << json_escape(vu.second) << "\"}";
    sep = ", ";
  }
  o << "}";
  return o.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string fingerprint_json(const std::string& commit) {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  std::ostringstream o;
  o << "{\"cpu_model\": \"" << json_escape(cpu) << "\""
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"simd_detected\": \""
    << lepton::util::simd_level_name(lepton::util::detected_simd()) << "\""
    << ", \"simd_active\": \""
    << lepton::util::simd_level_name(lepton::util::active_simd()) << "\""
    << ", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER) << "\""
    << ", \"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE) << "\""
    << ", \"commit\": \"" << json_escape(commit) << "\"}";
  return o.str();
}

}  // namespace perfbench
