// micro_store — durability overhead of storage::DurableStore.
//
// Measures put and get throughput (original-JPEG MB/s) through the full
// commit protocol at the three fsync levels:
//
//   fsync=always   every commit barriered (object fsync + dir fsync +
//                  journal fsync) — the crash-safe-vs-power-loss setting
//   fsync=batch    object files barriered; journal group-commits every
//                  16 records — the paper-scale bulk-ingest setting
//   fsync=off      no barriers — crash-safe vs process death only; this is
//                  the codec-bound ceiling the barrier overhead is priced
//                  against
//
// Also reports pure-dedup put throughput (second copy of every key — no
// object I/O, journal append only) and the recovery-scan rate. Appends a
// "bench": "store" entry to the BENCH_hotpath.json trajectory.
//
// Flags: --full for the larger corpus band, --out <path> for the JSON,
// --pr <n> for the trajectory entry id (default: this PR).
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "lepton/store.h"
#include "storage/durable_store.h"

namespace {

constexpr int kCurrentPr = 9;

using lepton::storage::DurableStore;
using lepton::storage::DurableStoreConfig;
using lepton::storage::FsyncMode;

struct StoreRun {
  double put_MBps = 0;
  double dedup_put_MBps = 0;
  double get_MBps = 0;
  double reopen_s = 0;  // recovery scan incl. full md5 verify
};

StoreRun run_mode(const std::vector<lepton::corpus::CorpusFile>& files,
                  FsyncMode mode, const char* tag) {
  std::string root = "/tmp/micro_store_" + std::to_string(::getpid()) + "_" +
                     tag;
  StoreRun r;
  double in_mb = 0;
  for (const auto& f : files) in_mb += static_cast<double>(f.bytes.size());
  in_mb /= 1 << 20;

  std::unique_ptr<DurableStore> store;
  {
    DurableStoreConfig cfg;
    cfg.root = root;
    cfg.fsync = mode;
    std::string err;
    store = DurableStore::open(std::move(cfg), &err);
    if (store == nullptr) {
      std::fprintf(stderr, "micro_store: open %s: %s\n", root.c_str(),
                   err.c_str());
      std::exit(1);
    }
  }

  lepton::TransparentStore codec;
  double put_s = bench::time_s([&] {
    for (std::size_t i = 0; i < files.size(); ++i) {
      const auto& d = files[i].bytes;
      auto ps = store->put_object("k" + std::to_string(i), codec.put(d));
      if (!ps.acknowledged) std::exit(1);
    }
    if (!store->sync()) std::exit(1);
  });
  r.put_MBps = in_mb / put_s;

  // Same content under new keys: content-address hit, journal append only.
  double dedup_s = bench::time_s([&] {
    for (std::size_t i = 0; i < files.size(); ++i) {
      const auto& d = files[i].bytes;
      auto ps = store->put_object("dup" + std::to_string(i), codec.put(d));
      if (!ps.acknowledged || !ps.deduplicated) std::exit(1);
    }
    if (!store->sync()) std::exit(1);
  });
  r.dedup_put_MBps = in_mb / dedup_s;

  double get_s = bench::time_s([&] {
    for (std::size_t i = 0; i < files.size(); ++i) {
      lepton::Result res;
      if (!store->get("k" + std::to_string(i), &res) || !res.ok() ||
          res.data != files[i].bytes) {
        std::exit(1);
      }
    }
  });
  r.get_MBps = in_mb / get_s;

  store.reset();
  r.reopen_s = bench::time_s([&] {
    DurableStoreConfig cfg;
    cfg.root = root;
    cfg.fsync = mode;
    std::string err;
    auto re = DurableStore::open(std::move(cfg), &err);
    if (re == nullptr || re->stats().recovery.keys_lost != 0) std::exit(1);
  });
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = bench::want_full(argc, argv);
  std::string out_path = "BENCH_hotpath.json";
  int pr = kCurrentPr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];
    if (std::string(argv[i]) == "--pr") pr = std::atoi(argv[i + 1]);
  }
  const auto& files = bench::corpus(full);
  double in_mb = 0;
  for (const auto& f : files) in_mb += static_cast<double>(f.bytes.size());
  in_mb /= 1 << 20;
  std::printf("micro_store: %zu files, %.2f MB, %u hw threads\n\n",
              files.size(), in_mb, bench::hardware_concurrency());

  struct {
    FsyncMode mode;
    const char* tag;
    StoreRun run;
  } modes[] = {
      {FsyncMode::kAlways, "always", {}},
      {FsyncMode::kBatch, "batch", {}},
      {FsyncMode::kNone, "off", {}},
  };
  std::printf("%-14s %12s %14s %12s %10s\n", "FSYNC", "PUT_MB/S",
              "DEDUP_PUT_MB/S", "GET_MB/S", "REOPEN_S");
  for (auto& m : modes) {
    m.run = run_mode(files, m.mode, m.tag);
    std::printf("%-14s %12.2f %14.2f %12.2f %10.3f\n", m.tag, m.run.put_MBps,
                m.run.dedup_put_MBps, m.run.get_MBps, m.run.reopen_s);
  }
  const StoreRun& always = modes[0].run;
  const StoreRun& batch = modes[1].run;
  const StoreRun& off = modes[2].run;
  std::printf(
      "\ndurability overhead: always/off put fraction %.3f, batch/off %.3f\n",
      off.put_MBps > 0 ? always.put_MBps / off.put_MBps : 0.0,
      off.put_MBps > 0 ? batch.put_MBps / off.put_MBps : 0.0);

  std::vector<std::string> entries =
      bench::read_trajectory_entries(out_path, pr, "store");
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "[\n");
  for (const auto& e : entries) std::fprintf(out, "%s,\n", e.c_str());
  std::fprintf(out,
               "{\n"
               "  \"pr\": %d,\n"
               "  \"bench\": \"store\",\n"
               "  \"put_fsync_MBps\": %.2f,\n"
               "  \"put_batch_MBps\": %.2f,\n"
               "  \"put_nofsync_MBps\": %.2f,\n"
               "  \"dedup_put_fsync_MBps\": %.2f,\n"
               "  \"get_MBps\": %.2f,\n"
               "  \"reopen_verify_s\": %.3f,\n"
               "  \"fsync_overhead_fraction\": %.3f,\n"
               "  \"batch_overhead_fraction\": %.3f,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"corpus_files\": %zu,\n"
               "  \"corpus_MB\": %.2f\n"
               "}\n"
               "]\n",
               pr, always.put_MBps, batch.put_MBps, off.put_MBps,
               always.dedup_put_MBps, off.get_MBps, always.reopen_s,
               off.put_MBps > 0 ? always.put_MBps / off.put_MBps : 0.0,
               off.put_MBps > 0 ? batch.put_MBps / off.put_MBps : 0.0,
               bench::hardware_concurrency(), files.size(), in_mb);
  std::fclose(out);
  std::printf("\nwrote %s (trajectory entry pr=%d bench=store, %zu prior "
              "entries kept)\n",
              out_path.c_str(), pr, entries.size());
  return 0;
}
