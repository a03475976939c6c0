// store_zipf: a closed loop of ShardedStore gets (Zipf-skewed over K
// objects with distinct bytes) and put overwrites with fresh bytes against
// an in-process 4-shard store with its decode cache.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "lepton/codec.h"
#include "lepton/store.h"
#include "storage/sharded_store.h"
#include "util/md5.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using lepton::storage::ShardedStore;

constexpr std::size_t kObjects = 512;
constexpr double kZipfS = 0.99;
constexpr double kPutShare = 0.05;
// The decoded working set is this many times the cache budget.
constexpr double kWorkingSetOverCache = 4;
// Set-up (a full population) is timed this many times; setup_s is the
// median.
constexpr int kSetupReps = 3;
constexpr std::uint64_t kInFlight = std::numeric_limits<std::uint64_t>::max();

using Bytes = std::shared_ptr<const std::vector<std::uint8_t>>;

// One put of a key: its version number (the bytes are regenerated from it
// when needed, so the checker holds no payloads), the event sequence number
// at which the put started and the one at which it was acknowledged
// (kInFlight until then).
struct Version {
  std::uint64_t version = 0;
  std::uint64_t start = 0;
  std::uint64_t ack = kInFlight;
};

struct KeyState {
  std::mutex mu;
  std::vector<Version> versions;
  std::uint64_t next_version = 1;
};

std::string key_name(std::size_t k) { return "obj/" + std::to_string(k); }

Bytes object_bytes(const std::vector<InputFile>& base, std::size_t k,
                   std::uint64_t version, std::uint64_t seed) {
  char nonce[96];
  std::snprintf(nonce, sizeof(nonce), "perfbench object %zu version %llu seed %llu", k,
                static_cast<unsigned long long>(version),
                static_cast<unsigned long long>(seed));
  return std::make_shared<const std::vector<std::uint8_t>>(
      with_nonce(base[k % base.size()].bytes, nonce));
}

std::unique_ptr<ShardedStore> open_store(const std::string& dir, std::size_t cache_bytes) {
  lepton::storage::ShardedStoreConfig cfg;
  for (int s = 0; s < 4; ++s) {
    cfg.shards.push_back({"shard" + std::to_string(s),
                          dir + "/shard" + std::to_string(s), {}});
  }
  cfg.fsync = lepton::storage::FsyncMode::kBatch;
  cfg.decode_cache_bytes = cache_bytes;
  std::string err;
  auto store = ShardedStore::open(cfg, &err);
  if (store == nullptr) abort_wrong_bytes("store open: " + err);
  return store;
}

double dir_bytes(const std::string& dir) {
  double total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += static_cast<double>(e.file_size());
  }
  return total;
}

struct LoopResult {
  std::vector<double> get_ms, put_ms, hit_us, miss_ms, miss_mb;
  std::vector<double> admit_ms, commit_ms;
  std::vector<char> get_hit;  // per get_ms sample
  double mb = 0, wall_s = 0, cpu_s = 0, rss_growth_mb = 0, steal_s = 0;
  double segments = 0, codec_ops = 0;
  std::uint64_t attempted = 0, failed = 0, deduplicated = 0;
};

struct StoreRig {
  const std::vector<InputFile>& base;
  std::uint64_t seed;
  ShardedStore& store;
  std::vector<KeyState>& keys;
  const std::vector<std::size_t>& rank_to_key;
  const std::vector<double>& zipf_cdf;
  std::atomic<std::uint64_t>& seq;
};

// True when `got` equals a version of key k that a get spanning events
// [g0, g1] may return: one whose put started before the get ended and that
// no later put had replaced (started after it was acknowledged, and was
// itself acknowledged) before the get began.
bool acceptable(const StoreRig& rig, std::size_t k, const std::vector<std::uint8_t>& got,
                std::uint64_t g0, std::uint64_t g1) {
  std::vector<std::uint64_t> candidates;
  {
    KeyState& ks = rig.keys[k];
    std::lock_guard<std::mutex> lk(ks.mu);
    for (const Version& v : ks.versions) {
      if (v.start >= g1) continue;
      bool replaced = false;
      for (const Version& w : ks.versions) {
        if (v.ack != kInFlight && w.start > v.ack && w.ack < g0) replaced = true;
      }
      if (!replaced) candidates.push_back(v.version);
    }
  }
  for (std::uint64_t v : candidates) {
    if (*object_bytes(rig.base, k, v, rig.seed) == got) return true;
  }
  return false;
}

LoopResult store_loop(StoreRig& rig, std::uint64_t stream, double seconds,
                      SpanRecorder* rec) {
  LoopResult total;
  std::mutex mu;
  lepton::TransparentStore admit{lepton::EncodeOptions{}};
  // Hand set-up's freed heap back first, so the peak above this level is
  // what the loop itself holds and not what set-up happened to leave.
  malloc_trim(0);
  double rss0 = current_rss_mb();
  double cpu0 = process_cpu_seconds();
  LoopMonitor monitor;
  auto start = monitor.start();
  auto deadline = start + std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      lepton::util::Rng rng((rig.seed * 104729u + stream) * 31u +
                            static_cast<std::uint64_t>(t) + 1);
      LoopResult r;
      std::size_t puts = 0;
      for (std::uint64_t op = 0; Clock::now() < deadline; ++op) {
        std::uint64_t request = (static_cast<std::uint64_t>(t) << 40) | op;
        ++r.attempted;
        if (rng.chance(kPutShare)) {
          // Overwrites cycle through the base images, so every run writes
          // the same mix of sizes; the key within a base is random.
          std::size_t nb = rig.base.size();
          std::size_t k = (puts++ * 37 + static_cast<std::size_t>(t) * 16) % nb +
                          nb * rng.below(rig.keys.size() / nb);
          KeyState& ks = rig.keys[k];
          std::uint64_t version;
          {
            std::lock_guard<std::mutex> lk(ks.mu);
            version = ks.next_version++;
            ks.versions.push_back({version, rig.seq++, kInFlight});
          }
          Bytes bytes = object_bytes(rig.base, k, version, rig.seed);
          std::string key = key_name(k);
          lepton::storage::ShardedPutStats ps;
          auto t0 = Clock::now();
          if (rec == nullptr) {
            ps = rig.store.put(key, *bytes);
          } else {
            // Traced: the same work as ShardedStore::put, split into its
            // two public calls so each gets a span.
            double a = rec->now();
            lepton::StoredObject obj = admit.put(*bytes);
            double b = rec->now();
            ps = rig.store.put_object(key, obj);
            double c = rec->now();
            int root = rec->add({"op.put", a, c, -1, request});
            rec->add({"lepton.admit", a, b, root, request});
            rec->add({"storage.commit", b, c, root, request});
            r.admit_ms.push_back((b - a) * 1e3);
            r.commit_ms.push_back((c - b) * 1e3);
          }
          double ms = seconds_between(t0, Clock::now()) * 1e3;
          // A put that was not acknowledged stays in flight for good: a
          // get may still see it, and it replaces no earlier version.
          if (!ps.durable.acknowledged) {
            ++r.failed;
            continue;
          }
          {
            std::lock_guard<std::mutex> lk(ks.mu);
            for (Version& v : ks.versions) {
              if (v.version == version) v.ack = rig.seq++;
            }
          }
          if (ps.durable.deduplicated) ++r.deduplicated;
          r.put_ms.push_back(ms);
          r.mb += static_cast<double>(bytes->size()) / 1e6;
          r.segments += lepton::threads_for_size(bytes->size(), 8);
          r.codec_ops += 1;
          continue;
        }
        double u = rng.uniform();
        std::size_t rank = static_cast<std::size_t>(
            std::lower_bound(rig.zipf_cdf.begin(), rig.zipf_cdf.end(), u) -
            rig.zipf_cdf.begin());
        std::size_t k = rig.rank_to_key[std::min(rank, rig.rank_to_key.size() - 1)];
        std::string key = key_name(k);
        lepton::Result got;
        lepton::storage::ShardedGetStats gs;
        std::uint64_t g0 = rig.seq++;
        double a = rec != nullptr ? rec->now() : 0;
        auto t0 = Clock::now();
        bool found = rig.store.get(key, &got, &gs);
        double s = seconds_between(t0, Clock::now());
        if (rec != nullptr) {
          double b = rec->now();
          int root = rec->add({"op.get", a, b, -1, request});
          rec->add({gs.cache_hit ? "storage.get.hit" : "storage.get.miss", a, b, root,
                    request});
        }
        std::uint64_t g1 = rig.seq++;
        if (!found || !got.ok()) {
          ++r.failed;
          continue;
        }
        if (!acceptable(rig, k, got.data, g0, g1)) {
          abort_wrong_bytes("store get of " + key);
        }
        r.get_ms.push_back(s * 1e3);
        r.get_hit.push_back(gs.cache_hit ? 1 : 0);
        double mb = static_cast<double>(got.data.size()) / 1e6;
        r.mb += mb;
        if (gs.cache_hit) {
          r.hit_us.push_back(s * 1e6);
        } else {
          r.miss_ms.push_back(s * 1e3);
          r.miss_mb.push_back(mb);
          r.segments += lepton::threads_for_size(got.data.size(), 8);
          r.codec_ops += 1;
        }
      }
      std::lock_guard<std::mutex> lk(mu);
      auto append = [](auto& dst, const auto& src) {
        dst.insert(dst.end(), src.begin(), src.end());
      };
      append(total.get_ms, r.get_ms);
      append(total.put_ms, r.put_ms);
      append(total.hit_us, r.hit_us);
      append(total.miss_ms, r.miss_ms);
      append(total.miss_mb, r.miss_mb);
      append(total.admit_ms, r.admit_ms);
      append(total.commit_ms, r.commit_ms);
      append(total.get_hit, r.get_hit);
      total.mb += r.mb;
      total.segments += r.segments;
      total.codec_ops += r.codec_ops;
      total.attempted += r.attempted;
      total.failed += r.failed;
      total.deduplicated += r.deduplicated;
    });
  }
  for (auto& t : threads) t.join();
  total.wall_s = seconds_between(start, Clock::now());
  total.cpu_s = process_cpu_seconds() - cpu0;
  monitor.stop();
  total.steal_s = monitor.steal_s();
  total.rss_growth_mb = monitor.peak_rss_mb() - rss0;
  return total;
}

double hit_rate(const std::vector<char>& hits) {
  double h = 0;
  for (char c : hits) h += c;
  return hits.empty() ? 0 : h / static_cast<double>(hits.size());
}

}  // namespace

RunOutput run_store(const RunArgs& args) {
  RunOutput out;
  std::vector<InputFile> base = store_base_pool(args.seed, args.work_dir + "/inputs");

  // Initial object bytes; every object must be distinct content.
  std::vector<Bytes> initial(kObjects);
  std::set<std::string> digests;
  double working_set = 0;
  for (std::size_t k = 0; k < kObjects; ++k) {
    initial[k] = object_bytes(base, k, 0, args.seed);
    digests.insert(lepton::util::Md5::hex_digest(*initial[k]));
    working_set += static_cast<double>(initial[k]->size());
  }
  if (digests.size() != kObjects) {
    out.correct = false;
    out.notes.push_back("object contents are not distinct");
    return out;
  }
  auto cache_bytes = static_cast<std::size_t>(working_set / kWorkingSetOverCache);

  // Set-up, timed kSetupReps times: open a fresh 4-shard store and
  // populate it (each put encodes, round-trip checks and commits).
  std::string dir = args.work_dir + "/tmp/store";
  std::vector<double> setup_s;
  std::unique_ptr<ShardedStore> store;
  std::uint64_t population_dedup = 0, population_failed = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    store.reset();
    std::filesystem::remove_all(dir);
    population_dedup = population_failed = 0;
    auto t0 = Clock::now();
    store = open_store(dir, cache_bytes);
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> dedup{0}, failed{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&] {
        for (std::size_t k; (k = next++) < kObjects;) {
          auto ps = store->put(key_name(k), *initial[k]);
          if (!ps.durable.acknowledged) ++failed;
          if (ps.durable.deduplicated) ++dedup;
        }
      });
    }
    for (auto& t : threads) t.join();
    store->sync();
    setup_s.push_back(seconds_between(t0, Clock::now()));
    population_dedup = dedup;
    population_failed = failed;
  }
  if (population_failed != 0) {
    out.correct = false;
    out.notes.push_back("population puts failed");
    return out;
  }
  // Space per user byte of the populated store (compressed objects plus
  // journal), before overwrites leave replaced objects behind.
  const double size_ratio = dir_bytes(dir) / working_set;

  std::atomic<std::uint64_t> seq{1};
  std::vector<KeyState> keys(kObjects);
  for (std::size_t k = 0; k < kObjects; ++k) keys[k].versions.push_back({0, 0, 0});
  // Every run of 64 consecutive popularity ranks holds each base image
  // once (rank r takes base 37r mod 64, a fixed spread of sizes), so the
  // hot set's sizes are the same whatever the seed; the seed shuffles keys
  // within a base.
  std::vector<std::size_t> rank_to_key(kObjects);
  {
    lepton::util::Rng shuffle(args.seed ^ 0x5A17ull);
    std::size_t nb = base.size();
    std::vector<std::vector<std::size_t>> by_base(nb);
    for (std::size_t k = 0; k < kObjects; ++k) by_base[k % nb].push_back(k);
    for (auto& ks : by_base) {
      for (std::size_t i = ks.size(); i > 1; --i) std::swap(ks[i - 1], ks[shuffle.below(i)]);
    }
    for (std::size_t r = 0; r < kObjects; ++r) {
      rank_to_key[r] = by_base[(r * 37) % nb][r / nb];
    }
  }
  std::vector<double> pop = zipf_popularities(kObjects, kZipfS);
  std::vector<double> cdf(kObjects);
  double acc = 0;
  for (std::size_t i = 0; i < kObjects; ++i) cdf[i] = (acc += pop[i]);
  StoreRig rig{base, args.seed, *store, keys, rank_to_key, cdf, seq};

  // After a loop: syncs and checks that the store deduplicated no put.
  auto finish = [&](std::uint64_t dedup) {
    store->sync();
    if (population_dedup + dedup != 0) {
      out.correct = false;
      out.notes.push_back("store deduplicated a put: object bytes are not distinct");
    }
  };

  MetricSheet& m = out.metrics;
  if (!args.trace) {
    LoopResult r = store_loop(rig, 0, args.seconds, nullptr);
    out.attempted = r.attempted;
    out.failed = r.failed;
    double tail = std::min(99.0, supported_tail_percentile(r.get_ms.size()));
    double p50 = median(r.get_ms);
    m.set("throughput_MBps", r.mb / r.wall_s, "MB/s");
    m.set("latency_p50_ms", p50, "ms");
    m.set("ttfb_p50_ms", p50, "ms");
    m.set("put_latency_p50_ms", median(r.put_ms), "ms");
    m.set("latency_p99_ms", percentile(r.get_ms, tail), "ms");
    m.set("cpu_s_per_MB", r.cpu_s / r.mb, "s/MB");
    finish(r.deduplicated);
    m.set("size_ratio", size_ratio, "ratio");
    m.set("setup_s", median(setup_s), "s");
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "store_zipf: %zu gets (hit rate %.3f), %zu puts, tail percentile "
                  "p%.1f, cache %.1f MB for a %.1f MB working set, %.2f CPU s stolen "
                  "by other tenants",
                  r.get_ms.size(), hit_rate(r.get_hit), r.put_ms.size(), tail,
                  static_cast<double>(cache_bytes) / 1e6, working_set / 1e6, r.steal_s);
    out.notes.push_back(buf);
  } else {
    LoopResult plain = store_loop(rig, 0, args.seconds / 2, nullptr);
    SpanRecorder rec;
    LoopResult tr = store_loop(rig, 1, args.seconds / 2, &rec);
    out.attempted = plain.attempted + tr.attempted;
    out.failed = plain.failed + tr.failed;
    std::vector<char> hits = plain.get_hit;
    hits.insert(hits.end(), tr.get_hit.begin(), tr.get_hit.end());
    auto cs = store->stats().cache;
    finish(plain.deduplicated + tr.deduplicated);
    double bytes_on_disk = dir_bytes(dir);
    std::vector<double> ring_ns;
    for (int rep = 0; rep < 20; ++rep) {
      auto t0 = Clock::now();
      for (std::size_t k = 0; k < kObjects; ++k) (void)store->shard_of(key_name(k));
      ring_ns.push_back(seconds_between(t0, Clock::now()) * 1e9 / kObjects);
    }
    CodecRates rates = codec_probes(base, rec, m);
    side_server_probe(base, m);

    double capacity = static_cast<double>(cache_bytes) / (working_set / kObjects);
    double miss_p50 = median(tr.miss_ms);
    using B = CodecRates::Band;
    double read_ms_per_mb = rates.ms_per_mb(3, &B::md5) + rates.ms_per_mb(3, &B::miss_decode);
    m.set("storage.cache_hit_rate", hit_rate(hits), "ratio");
    m.set("storage.cache_hit_rate_expected", che_lru_hit_rate(pop, capacity), "ratio");
    m.set("storage.cache_evictions", static_cast<double>(cs.evictions), "count");
    m.set("storage.cache_invalidations", static_cast<double>(cs.invalidations), "count");
    m.set("storage.get_hit_us_p50", median(tr.hit_us), "us");
    m.set("storage.ring_lookup_ns", median(ring_ns), "ns");
    m.set("storage.get_miss_ms_p50", miss_p50, "ms");
    m.set("storage.miss_residual_ms", miss_p50 - read_ms_per_mb * median(tr.miss_mb), "ms");
    m.set("lepton.admit_ms_p50", median(tr.admit_ms), "ms");
    m.set("storage.commit_ms_p50", median(tr.commit_ms), "ms");
    m.set("storage.puts_deduplicated",
          static_cast<double>(population_dedup + plain.deduplicated + tr.deduplicated),
          "count");
    m.set("storage.bytes_on_disk", bytes_on_disk, "bytes");
    m.set("lepton.segments_mean", tr.segments / std::max(1.0, tr.codec_ops), "count");
    m.set("cpu.util",
          plain.cpu_s / (plain.wall_s * std::thread::hardware_concurrency()), "ratio");
    double p50 = median(tr.get_ms);
    m.set("trace_overhead", p50 / median(plain.get_ms), "ratio");
    m.set("peak_rss_MB", plain.rss_growth_mb, "MB");

    // p50 attribution of a get: the ring lookup always; on a miss also the
    // md5 verify and the decode at their measured per-MB costs. The
    // residual is index lookup, disk read, cache work and copies.
    const std::size_t mid = median_index(tr.get_ms);
    double rep_ms = tr.get_ms[mid];
    std::vector<LayerNode> layers{{"storage.ring", median(ring_ns) / 1e6, {}}};
    if (tr.get_hit[mid] == 0) {
      double mb = median(tr.miss_mb);
      layers.push_back({"util.md5", rates.ms_per_mb(3, &B::md5) * mb, {}});
      layers.push_back({"storage.miss_decode", rates.ms_per_mb(3, &B::miss_decode) * mb, {}});
    }
    auto rows = attribute(rep_ms, layers);
    m.set("trace.p50_ms", rep_ms, "ms");
    m.set("trace.unattributed_ms", rows.back().self_ms, "ms");
    out.notes.push_back(attribution_note(
        std::string("store_zipf (") + (tr.get_hit[mid] ? "hit" : "miss") + ")", rep_ms,
        layers, rows));
    std::filesystem::create_directories(args.work_dir + "/traces");
    rec.write_jsonl(args.work_dir + "/traces/store_zipf-seed" +
                    std::to_string(args.seed) + ".jsonl");
  }
  store.reset();
  std::filesystem::remove_all(dir);
  return out;
}

}  // namespace perfbench
