// workload_replay — the §5 workload-replay tool.
//
// Replays a paper-shaped week against storage::ShardedStore: a fig11
// backfill ramp ingests millions of simulated objects across N shards,
// then Zipf-skewed reads (Xu et al., arXiv:1912.11145) with fig05 weekly
// timestamps hammer the decoded-output cache. Mid-replay drills: a §5.7
// SHUTOFF engage/clear during backfill and one shard kill + restart during
// the read phase. Every successful read is verified byte-for-byte against
// the original, so the exit code certifies "zero lost or corrupted acked
// reads" — the CI sharded job runs the --smoke shape and trusts exactly
// that.
//
// Flags:
//   --objects N      simulated objects          (default 1,000,000)
//   --reads N        Zipf read accesses         (default 1,200,000)
//   --shards N       shard count                (default 4)
//   --pool N         distinct JPEG contents     (default 4096)
//   --cache-mb N     decoded-output LRU budget  (default 48)
//   --uncached N     baseline sample reads      (default 20000)
//   --seed N         replay seed                (default 11945)
//   --dir PATH       store root                 (default /tmp/workload_replay_<pid>)
//   --summary PATH   write a "key value" summary file (CI artifact)
//   --smoke          CI shape: 20k objects, 60k reads, small pool
//   --no-kill        skip the shard kill/restart drill
//   --no-shutoff     skip the SHUTOFF drill
#include <cstdio>
#include <cstring>
#include <string>

#include <unistd.h>

#include "replay_harness.h"

namespace {

namespace ls = lepton::storage;

void write_summary(const std::string& path, const ls::ReplayHarnessConfig& hc,
                   const ls::ReplayReport& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "workload_replay: cannot write %s\n", path.c_str());
    return;
  }
  auto kv = [&](const char* k, double v, const char* fmt = "%.0f") {
    std::fprintf(f, "%s ", k);
    std::fprintf(f, fmt, v);
    std::fprintf(f, "\n");
  };
  kv("shards", hc.shards);
  kv("objects", static_cast<double>(hc.objects));
  kv("accesses", static_cast<double>(r.accesses));
  kv("reads_issued", static_cast<double>(r.reads_issued));
  kv("reads_ok", static_cast<double>(r.reads_ok));
  kv("reads_unavailable", static_cast<double>(r.reads_unavailable));
  kv("reads_failed", static_cast<double>(r.reads_failed));
  kv("reads_corrupt", static_cast<double>(r.reads_corrupt));
  kv("lost_after_restart", static_cast<double>(r.lost_after_restart));
  kv("backfill_failures", static_cast<double>(r.backfill_failures));
  kv("killed_shard", r.killed_shard);
  kv("shutoff_deflate_puts", static_cast<double>(r.shutoff_deflate_puts));
  kv("backfill_keys_per_s", r.backfill_keys_per_s, "%.0f");
  kv("cached_read_MBps", r.cached_MBps, "%.2f");
  kv("uncached_read_MBps", r.uncached_MBps, "%.2f");
  kv("cache_speedup", r.cache_speedup, "%.2f");
  kv("cache_hit_rate", r.hit_rate, "%.4f");
  kv("ok", r.ok ? 1 : 0);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  ls::ReplayHarnessConfig hc;
  hc.dir = "/tmp/workload_replay_" + std::to_string(::getpid());
  hc.progress = true;
  std::string summary;
  auto u64 = [](const char* s) { return std::strtoull(s, nullptr, 10); };
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--smoke") {
      hc.objects = 20'000;
      hc.reads = 60'000;
      hc.pool = 256;
      hc.cache_mb = 8;
      hc.uncached_sample = 2'000;
      hc.restart_verify_sample = 500;
    } else if (a == "--no-kill") {
      hc.kill_restart = false;
    } else if (a == "--no-shutoff") {
      hc.shutoff_drill = false;
    } else if (a == "--quiet") {
      hc.progress = false;
    } else if (v != nullptr && a == "--objects") {
      hc.objects = u64(argv[++i]);
    } else if (v != nullptr && a == "--reads") {
      hc.reads = u64(argv[++i]);
    } else if (v != nullptr && a == "--shards") {
      hc.shards = static_cast<int>(u64(argv[++i]));
    } else if (v != nullptr && a == "--pool") {
      hc.pool = static_cast<std::size_t>(u64(argv[++i]));
    } else if (v != nullptr && a == "--cache-mb") {
      hc.cache_mb = static_cast<std::size_t>(u64(argv[++i]));
    } else if (v != nullptr && a == "--uncached") {
      hc.uncached_sample = u64(argv[++i]);
    } else if (v != nullptr && a == "--seed") {
      hc.seed = u64(argv[++i]);
    } else if (v != nullptr && a == "--dir") {
      hc.dir = argv[++i];
    } else if (v != nullptr && a == "--summary") {
      summary = argv[++i];
    } else {
      std::fprintf(stderr, "workload_replay: unknown flag %s\n", a.c_str());
      return 2;
    }
  }

  std::printf(
      "workload_replay: %llu objects / %llu reads over %d shards "
      "(pool %zu, cache %zu MB, seed %llu)\n",
      static_cast<unsigned long long>(hc.objects),
      static_cast<unsigned long long>(hc.reads), hc.shards, hc.pool,
      hc.cache_mb, static_cast<unsigned long long>(hc.seed));

  ls::ReplayReport r = ls::run_replay(hc);
  if (!r.error.empty()) {
    std::fprintf(stderr, "workload_replay: FATAL %s\n", r.error.c_str());
    return 1;
  }

  std::printf("\n");
  std::printf("accesses               %llu (%llu backfill + %llu reads)\n",
              static_cast<unsigned long long>(r.accesses),
              static_cast<unsigned long long>(r.backfill_keys),
              static_cast<unsigned long long>(r.reads_issued));
  std::printf("backfill               %.1f s (%.0f keys/s)\n", r.backfill_s,
              r.backfill_keys_per_s);
  std::printf("reads ok/unavail       %llu / %llu\n",
              static_cast<unsigned long long>(r.reads_ok),
              static_cast<unsigned long long>(r.reads_unavailable));
  std::printf("reads failed/corrupt   %llu / %llu\n",
              static_cast<unsigned long long>(r.reads_failed),
              static_cast<unsigned long long>(r.reads_corrupt));
  std::printf("lost after restart     %llu (shard %d killed+recovered)\n",
              static_cast<unsigned long long>(r.lost_after_restart),
              r.killed_shard);
  std::printf("shutoff drill          %llu/8 deflate puts verified\n",
              static_cast<unsigned long long>(r.shutoff_deflate_puts));
  std::printf("cache hit rate         %.1f%% (%llu hits / %llu gets)\n",
              100.0 * r.hit_rate,
              static_cast<unsigned long long>(r.cache.hits),
              static_cast<unsigned long long>(r.cache.gets));
  std::printf("cached read rate       %.1f MB/s (%.1f MB in %.1f s)\n",
              r.cached_MBps, r.read_MB, r.read_s);
  std::printf("uncached read rate     %.1f MB/s (sample of %llu)\n",
              r.uncached_MBps,
              static_cast<unsigned long long>(hc.uncached_sample));
  std::printf("cache speedup          %.1fx\n", r.cache_speedup);
  std::printf("\n%s\n", r.ok ? "REPLAY OK: zero lost or corrupted acked reads"
                             : "REPLAY FAILED");

  if (!summary.empty()) write_summary(summary, hc, r);
  return r.ok ? 0 : 1;
}
