// The §5 workload-replay harness core behind examples/workload_replay.cpp.
// It is a test harness, not library code, so it lives next to the one
// program that uses it.
//
// Replays millions of simulated object accesses against a ShardedStore:
// a fig11-style backfill ramp ingests every object (content drawn from a
// bounded pool of distinct pre-admitted JPEGs, so the simulated keyspace
// can dwarf the real bytes on disk), then Zipf-skewed reads with fig05
// weekly-shape timestamps hammer get(). Mid-replay drills: a §5.7 SHUTOFF
// engage/clear during backfill (fresh puts must admit as Deflate and read
// back byte-identical), and one shard kill + restart during the read phase
// (reads on the dead shard must classify unavailable — never wrong bytes,
// never a claimed miss — and after recovery every sampled key on that
// shard must read back byte-identical).
//
// Every successful read is verified against the known original bytes, so
// the report's "zero lost or corrupted acked reads" claim is checked per
// access, not sampled.
#pragma once

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "storage/sharded_store.h"
#include "storage/workload.h"

namespace lepton::storage {

struct ReplayHarnessConfig {
  std::string dir;                  // root; shard i lives at dir/shard<i>
  int shards = 4;
  std::uint64_t objects = 1'000'000;
  std::uint64_t reads = 1'200'000;
  std::size_t pool = 4096;          // distinct JPEG contents
  std::size_t min_obj_bytes = 8u << 10;
  std::size_t max_obj_bytes = 24u << 10;
  std::size_t cache_mb = 48;        // decoded-output budget; 0 = no cache
  double zipf_s = 0.99;
  std::uint64_t seed = 11945;       // arXiv:1912.11145
  bool shutoff_drill = true;        // at 50% of backfill
  bool kill_restart = true;         // kill at 30% of reads, restart at 60%
  std::uint64_t restart_verify_sample = 2000;  // keys re-read after recovery
  std::uint64_t uncached_sample = 20000;       // baseline reads, cache off
  bool progress = false;            // chatty phase logging to stderr
};

struct ReplayReport {
  // Volume.
  std::uint64_t accesses = 0;  // puts issued + gets issued
  std::uint64_t backfill_keys = 0;
  std::uint64_t reads_issued = 0;
  // Read outcomes.
  std::uint64_t reads_ok = 0;
  std::uint64_t reads_unavailable = 0;  // routed to the killed shard
  std::uint64_t reads_failed = 0;       // acked key unserveable — data loss
  std::uint64_t reads_corrupt = 0;      // wrong bytes served — never allowed
  std::uint64_t lost_after_restart = 0;
  std::uint64_t backfill_failures = 0;
  // Drills.
  int killed_shard = -1;
  std::uint64_t shutoff_deflate_puts = 0;
  // Rates.
  double backfill_s = 0;
  double backfill_keys_per_s = 0;
  double read_s = 0;
  double read_MB = 0;
  double cached_MBps = 0;    // effective read rate through the cache
  double uncached_MBps = 0;  // baseline sample with the cache disabled
  double cache_speedup = 0;  // cached_MBps / uncached_MBps
  double hit_rate = 0;       // cache hits / cache gets on the read phase
  DecodeCacheStats cache;
  ShardedStoreStats store;
  bool ok = false;  // zero lost or corrupted acked reads, drills passed
  std::string error;
};

namespace replay_detail {

inline std::string key_name(std::uint64_t object) {
  return "obj" + std::to_string(object);
}

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

inline void note(const ReplayHarnessConfig& hc, const char* fmt, ...) {
  if (!hc.progress) return;
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
}

}  // namespace replay_detail

inline ReplayReport run_replay(const ReplayHarnessConfig& hc) {
  using replay_detail::key_name;
  using replay_detail::note;
  using replay_detail::seconds_since;
  ReplayReport r;

  // ---- content pool: distinct originals, pre-admitted once -------------
  note(hc, "replay: building %zu-object content pool...\n", hc.pool);
  TransparentStore codec;
  util::Rng pool_rng(hc.seed ^ 0x706f6f6cull);  // "pool"
  std::vector<std::vector<std::uint8_t>> originals(hc.pool);
  std::vector<StoredObject> admitted(hc.pool);
  for (std::size_t i = 0; i < hc.pool; ++i) {
    std::size_t span = hc.max_obj_bytes - hc.min_obj_bytes + 1;
    std::size_t size = hc.min_obj_bytes + pool_rng.below(span);
    originals[i] = corpus::jpeg_of_size(size, hc.seed + i);
    admitted[i] = codec.put({originals[i].data(), originals[i].size()});
  }

  // ---- sharded store ---------------------------------------------------
  ShardedStoreConfig sc;
  for (int i = 0; i < hc.shards; ++i) {
    ShardBackendConfig sh;
    sh.name = "shard" + std::to_string(i);
    sh.root = hc.dir + "/shard" + std::to_string(i);
    sc.shards.push_back(std::move(sh));
  }
  // Simulated-object mode: millions of journal appends, so no per-put
  // barriers — the kill drill is loss of the backend process, not of the
  // machine (power-loss crash safety is PR 9's harness).
  sc.fsync = FsyncMode::kNone;
  sc.decode_cache_bytes = hc.cache_mb << 20;
  std::string err;
  auto store = ShardedStore::open(sc, &err);
  if (store == nullptr) {
    r.error = "open: " + err;
    return r;
  }

  // ---- backfill (fig11 ramp) ------------------------------------------
  ReplayConfig rc;
  rc.objects = hc.objects;
  rc.reads = hc.reads;
  rc.zipf_s = hc.zipf_s;
  rc.seed = hc.seed;
  ReplayGen gen(rc);
  ReplayOp op;
  const std::uint64_t drill_at = hc.objects / 2;
  auto t0 = std::chrono::steady_clock::now();
  note(hc, "replay: backfilling %llu keys across %d shards...\n",
       static_cast<unsigned long long>(hc.objects), hc.shards);
  while (gen.next(&op) && op.kind == ReplayOp::Kind::kPut) {
    ++r.accesses;
    ++r.backfill_keys;
    const auto& obj = admitted[op.object % hc.pool];
    auto ps = store->put_object(key_name(op.object), obj);
    if (!ps.durable.acknowledged) ++r.backfill_failures;
    if (hc.shutoff_drill && r.backfill_keys == drill_at) {
      // §5.7 drill: engage fleet-wide, prove fresh conversions degrade to
      // Deflate (never fail), read them back, clear.
      note(hc, "replay: SHUTOFF drill at 50%% of backfill\n");
      store->set_shutoff(true);
      for (int d = 0; d < 8; ++d) {
        const auto& orig = originals[static_cast<std::size_t>(d) % hc.pool];
        auto dps = store->put("drill" + std::to_string(d),
                              {orig.data(), orig.size()});
        if (dps.durable.acknowledged &&
            dps.durable.kind == StorageKind::kDeflate) {
          Result res;
          if (store->get("drill" + std::to_string(d), &res) && res.ok() &&
              res.data == orig) {
            ++r.shutoff_deflate_puts;
          }
        }
      }
      store->set_shutoff(false);
    }
    if (r.backfill_keys == hc.objects) break;  // gen switches to reads next
  }
  r.backfill_s = seconds_since(t0);
  r.backfill_keys_per_s =
      r.backfill_s > 0 ? static_cast<double>(r.backfill_keys) / r.backfill_s
                       : 0;

  // ---- Zipf read phase (fig05 shape), kill/restart mid-stream ----------
  const int kill_shard = hc.shards > 1 ? 1 : -1;
  const std::uint64_t kill_at = hc.reads * 3 / 10;
  const std::uint64_t restart_at = hc.reads * 6 / 10;
  double read_bytes = 0;
  note(hc, "replay: %llu Zipf reads (s=%.2f)...\n",
       static_cast<unsigned long long>(hc.reads), hc.zipf_s);
  t0 = std::chrono::steady_clock::now();
  // The first op of this phase was already drawn by the loop above unless
  // the backfill count broke exactly at the boundary; handle both.
  bool have_op = op.kind == ReplayOp::Kind::kGet;
  while (have_op || gen.next(&op)) {
    have_op = false;
    if (op.kind != ReplayOp::Kind::kGet) continue;
    ++r.accesses;
    ++r.reads_issued;
    if (hc.kill_restart && kill_shard >= 0 && r.reads_issued == kill_at) {
      note(hc, "replay: killing shard %d at 30%% of reads\n", kill_shard);
      store->kill_shard(kill_shard);
      r.killed_shard = kill_shard;
    }
    if (hc.kill_restart && kill_shard >= 0 && r.reads_issued == restart_at) {
      note(hc, "replay: restarting shard %d at 60%% of reads\n", kill_shard);
      std::string rerr;
      if (!store->restart_shard(kill_shard, &rerr)) {
        r.error = "restart: " + rerr;
        return r;
      }
      // Recovery audit: a sample of the recovered shard's keys must read
      // back byte-identical to the originals they were acked with.
      auto keys = store->shard_keys(kill_shard);
      std::uint64_t checked = 0;
      for (const auto& k : keys) {
        if (checked >= hc.restart_verify_sample) break;
        if (k.rfind("obj", 0) != 0) continue;
        std::uint64_t id = std::strtoull(k.c_str() + 3, nullptr, 10);
        Result res;
        if (!store->get(k, &res) || !res.ok() ||
            res.data != originals[id % hc.pool]) {
          ++r.lost_after_restart;
        }
        ++checked;
      }
      note(hc, "replay: recovery audit over %llu keys, %llu lost\n",
           static_cast<unsigned long long>(checked),
           static_cast<unsigned long long>(r.lost_after_restart));
    }
    Result res;
    ShardedGetStats gs;
    bool found = store->get(key_name(op.object), &res, &gs);
    if (!found) {
      // Every object was acked during backfill; a claimed miss is loss.
      ++r.reads_failed;
    } else if (res.code == util::ExitCode::kServerShutdown) {
      ++r.reads_unavailable;
    } else if (!res.ok()) {
      ++r.reads_failed;
    } else {
      if (res.data != originals[op.object % hc.pool]) {
        ++r.reads_corrupt;
      } else {
        ++r.reads_ok;
        read_bytes += static_cast<double>(res.data.size());
      }
    }
  }
  r.read_s = seconds_since(t0);
  r.read_MB = read_bytes / (1 << 20);
  r.cached_MBps = r.read_s > 0 ? r.read_MB / r.read_s : 0;
  r.cache = store->cache() != nullptr ? store->cache()->stats()
                                      : DecodeCacheStats{};
  if (r.cache.gets > 0) {
    r.hit_rate = static_cast<double>(r.cache.hits) /
                 static_cast<double>(r.cache.gets);
  }
  r.store = store->stats();

  // ---- uncached baseline ----------------------------------------------
  // Same roots, cache disabled, a fresh Zipf stream: every read pays the
  // full decode. Reopen runs recovery on every shard first.
  if (hc.uncached_sample > 0) {
    note(hc, "replay: uncached baseline over %llu reads...\n",
         static_cast<unsigned long long>(hc.uncached_sample));
    store.reset();
    ShardedStoreConfig sc2 = sc;
    sc2.decode_cache_bytes = 0;
    auto bare = ShardedStore::open(sc2, &err);
    if (bare == nullptr) {
      r.error = "uncached reopen: " + err;
      return r;
    }
    ZipfSampler zipf(hc.objects, hc.zipf_s);
    util::Rng rng(hc.seed ^ 0x62617265ull);  // "bare"
    double bytes = 0;
    t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < hc.uncached_sample; ++i) {
      std::uint64_t object = zipf.sample(rng);
      Result res;
      if (!bare->get(key_name(object), &res) || !res.ok()) {
        ++r.reads_failed;
        continue;
      }
      if (res.data != originals[object % hc.pool]) {
        ++r.reads_corrupt;
        continue;
      }
      bytes += static_cast<double>(res.data.size());
    }
    double s = seconds_since(t0);
    r.uncached_MBps = s > 0 ? bytes / (1 << 20) / s : 0;
  }
  if (r.uncached_MBps > 0) r.cache_speedup = r.cached_MBps / r.uncached_MBps;

  r.ok = r.reads_corrupt == 0 && r.reads_failed == 0 &&
         r.lost_after_restart == 0 && r.backfill_failures == 0 &&
         (!hc.shutoff_drill || r.shutoff_deflate_puts == 8) &&
         (!hc.kill_restart || hc.shards < 2 || r.killed_shard >= 0);
  return r;
}

}  // namespace lepton::storage
