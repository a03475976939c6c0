// Tests of the benchmark's own helpers: the tail-percentile rule, the Che
// approximation against a brute-force LRU simulation, and span self times.
// Run: perfbench_selftest (exit 0 = all pass), or python3 perfbench/run.py
// --selftest.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <list>
#include <unordered_map>

#include "harness.h"
#include "util/rng.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void tail_percentile_rule() {
  using perfbench::supported_tail_percentile;
  // p99 of n samples has floor((n-1)*0.01)-ish samples above its rank;
  // ten beyond needs about a thousand samples.
  check(supported_tail_percentile(1011) == 99.0, "p99 supported at n=1011");
  check(supported_tail_percentile(1000) == 95.0, "p99 unsupported at n=1000");
  check(supported_tail_percentile(10011) == 99.9, "p99.9 supported at n=10011");
  check(supported_tail_percentile(211) == 95.0, "p95 supported at n=211");
  check(supported_tail_percentile(15) == 0.0, "nothing supported at n=15");
  check(supported_tail_percentile(21) == 50.0, "median supported at n=21");
  // The rule, checked directly: at least 10 samples strictly above the
  // percentile's value.
  for (std::size_t n : {50u, 120u, 999u, 1500u, 4000u}) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
    double p = supported_tail_percentile(n);
    double at = perfbench::percentile(v, p);
    std::size_t beyond = 0;
    for (double x : v) beyond += x > at ? 1 : 0;
    check(beyond >= 10, "ten samples beyond the chosen percentile");
  }
}

// Exact LRU over a sampled Zipf trace.
double simulate_lru(const std::vector<double>& p, std::size_t capacity,
                    std::size_t requests) {
  std::vector<double> cdf(p.size());
  double acc = 0;
  for (std::size_t i = 0; i < p.size(); ++i) cdf[i] = (acc += p[i]);
  lepton::util::Rng rng(7);
  std::list<std::size_t> lru;
  std::unordered_map<std::size_t, std::list<std::size_t>::iterator> where;
  std::size_t hits = 0, counted = 0;
  for (std::size_t r = 0; r < requests; ++r) {
    double u = rng.uniform();
    std::size_t k = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    k = std::min(k, p.size() - 1);
    auto it = where.find(k);
    bool hit = it != where.end();
    if (hit) lru.erase(it->second);
    lru.push_front(k);
    where[k] = lru.begin();
    if (lru.size() > capacity) {
      where.erase(lru.back());
      lru.pop_back();
    }
    if (r >= requests / 10) {  // skip the warm-up
      ++counted;
      hits += hit ? 1 : 0;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(counted);
}

void che_approximation() {
  for (auto [n, cap] : {std::pair<std::size_t, std::size_t>{50, 5}, {100, 25},
                        {200, 20}, {400, 100}}) {
    auto p = perfbench::zipf_popularities(n, 0.99);
    double che = perfbench::che_lru_hit_rate(p, static_cast<double>(cap));
    double sim = simulate_lru(p, cap, 400000);
    char what[96];
    std::snprintf(what, sizeof(what), "Che %.4f vs LRU %.4f (n=%zu, C=%zu)", che, sim,
                  n, cap);
    check(near(che, sim, 0.02), what);
  }
  auto p = perfbench::zipf_popularities(10, 0.99);
  check(perfbench::che_lru_hit_rate(p, 10) == 1.0, "cache holding everything hits");
  check(perfbench::che_lru_hit_rate(p, 0) == 0.0, "empty cache never hits");
}

void span_self_times() {
  using perfbench::Span;
  // root [0,10] with children [1,3] and [2,5] (overlapping: cover [1,5])
  // and [8,12] (clipped to [8,10]); grandchild [1,2] under the first.
  std::vector<Span> s{{"root", 0, 10, -1, 1}, {"a", 1, 3, 0, 1}, {"b", 2, 5, 0, 1},
                      {"c", 8, 12, 0, 1},     {"a1", 1, 2, 1, 1}};
  auto self = perfbench::self_times(s);
  check(near(self[0], 10 - 4 - 2, 1e-12), "root self excludes merged children");
  check(near(self[1], 1, 1e-12), "child self excludes grandchild");
  check(near(self[2], 3, 1e-12), "leaf self is its duration");
  check(near(self[4], 1, 1e-12), "grandchild self");

  auto rows = perfbench::attribute(
      10, {{"wire", 2, {}}, {"codec", 6, {{"huff", 2}, {"arith", 3}}}});
  double sum = 0;
  for (const auto& r : rows) sum += r.self_ms;
  check(near(sum, 10, 1e-12), "attribution rows sum to the request");
  check(rows.back().layer == "unattributed" && near(rows.back().self_ms, 2, 1e-12),
        "residual is the root's self time");
  check(near(rows[1].self_ms, 1, 1e-12), "codec self is what its calls leave");
  auto over = perfbench::attribute(5, {{"wire", 2, {}}, {"codec", 6, {}}});
  sum = 0;
  for (const auto& r : over) sum += r.self_ms;
  check(near(sum, 5, 1e-12) && near(over.back().self_ms, 0, 1e-12),
        "overrunning layers are clipped to the request");
}

}  // namespace

int main() {
  tail_percentile_rule();
  che_approximation();
  span_self_times();
  std::printf("%s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
