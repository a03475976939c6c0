// crash_store — the kill-9 durability harness for storage::DurableStore.
//
// Each iteration forks a child (re-exec of this binary via /proc/self/exe,
// so the child starts single-threaded and clean) that opens the store,
// arms a seeded failpoint schedule against the commit path (torn fs.write,
// ENOSPC renames, EIO fsyncs, failing unlinks), and puts deterministic
// corpus JPEGs as fast as it can — appending one complete, fsynced line to
// an ack log after each put the store acknowledged. The parent SIGKILLs
// the child at a randomized point mid-traffic, reopens the store, and
// asserts the durability invariant:
//
//   * every acknowledged put is readable byte-identical (md5 vs ack log)
//   * every key the recovered store still serves decodes cleanly — no
//     corrupt bytes are ever served, acknowledged or not
//   * recovery reports zero lost keys, and `leptonctl fsck`-equivalent
//     (DurableStore::fsck) agrees
//   * a synchronous scrub pass over the survivors finds nothing
//
// The store directory persists across iterations within a round (so
// recovery runs over accumulated state, dedup hits, and prior quarantine),
// then rotates to bound verification cost.
//
//   crash_store [--iters N] [--seed S] [--dir DIR]     (defaults 25 / 1)
//
// Exit 0 = invariant held for every iteration. CI runs 25 iterations; the
// acceptance bar for this harness locally is 100+.
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "lepton/store.h"
#include "storage/durable_store.h"
#include "util/failpoint.h"
#include "util/fileio.h"
#include "util/md5.h"

namespace {

using lepton::corpus::jpeg_of_size;
using lepton::storage::DurablePutStats;
using lepton::storage::DurableStore;
using lepton::storage::DurableStoreConfig;
using lepton::storage::DurableStoreStats;
using lepton::storage::FsckReport;
using lepton::storage::FsyncMode;
namespace fio = lepton::util::fileio;

// Child exit codes (anything else, or a non-SIGKILL signal, fails the run).
constexpr int kChildDone = 0;         // finished its put budget un-killed
constexpr int kChildInvariant = 42;   // child-side invariant violation

// Small deterministic content pool: variant → (size, seed). Shared across
// all keys and iterations so the content-address dedup path is constantly
// exercised and disk usage stays bounded.
constexpr int kVariants = 6;
std::vector<std::uint8_t> variant_jpeg(int v) {
  return jpeg_of_size((12 << 10) + static_cast<std::size_t>(v) * (4 << 10),
                      static_cast<std::uint64_t>(v) + 1);
}

// ---------------------------------------------------------------------------
// Child: open, arm chaos, put until killed.

int child_main(const std::string& root, const std::string& acklog,
               std::uint64_t seed, int fsync_mode) {
  DurableStoreConfig cfg;
  cfg.root = root;
  cfg.fsync = fsync_mode == 0 ? FsyncMode::kAlways : FsyncMode::kBatch;
  cfg.batch_puts = 4;
  std::string err;
  std::unique_ptr<DurableStore> store = DurableStore::open(std::move(cfg), &err);
  if (store == nullptr) {
    std::fprintf(stderr, "crash_store child: open failed: %s\n", err.c_str());
    return kChildInvariant;
  }

  // Armed after open: recovery I/O is unrouted by design, but the spec
  // should only ever score hits on the commit path.
  std::string spec = "seed=" + std::to_string(seed) +
                     ";fs.write=short@0.04"
                     ";fs.fsync=err:EIO@0.02"
                     ";fs.rename=err:ENOSPC@0.02"
                     ";fs.open=err:EIO@0.01"
                     ";fs.unlink=err:EIO@0.25";
  if (!lepton::util::failpoint::arm(spec, &err)) {
    std::fprintf(stderr, "crash_store child: bad spec: %s\n", err.c_str());
    return kChildInvariant;
  }

  int ack_fd = ::open(acklog.c_str(),
                      O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (ack_fd < 0) return kChildInvariant;

  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  lepton::TransparentStore codec;
  for (int j = 0; j < 400; ++j) {
    int v = static_cast<int>((seed + static_cast<std::uint64_t>(j)) % kVariants);
    std::vector<std::uint8_t> jpeg = variant_jpeg(v);
    std::string key = "s" + std::to_string(seed) + "-k" + std::to_string(j);
    DurablePutStats ps = store->put_object(key, codec.put(jpeg));
    if (!ps.acknowledged) {
      // Injected disk faults are first-class outcomes — anything else
      // leaking out of a failed commit is a bug.
      if (ps.code != lepton::util::ExitCode::kDiskFull &&
          ps.code != lepton::util::ExitCode::kIoError) {
        std::fprintf(stderr, "crash_store child: failed put classified %d\n",
                     static_cast<int>(ps.code));
        return kChildInvariant;
      }
      continue;
    }
    // The ack witness: md5 of the ORIGINAL bytes, logged as one complete
    // line only after the store acknowledged. The parent treats any key in
    // this log as a promise the store must keep.
    std::string line =
        "ok " + key + " " +
        lepton::util::Md5::hex_digest({jpeg.data(), jpeg.size()}) + " " +
        std::to_string(jpeg.size()) + "\n";
    ssize_t w = ::write(ack_fd, line.data(), line.size());
    if (w != static_cast<ssize_t>(line.size())) return kChildInvariant;
    ::fsync(ack_fd);
    // Occasionally read our own writes back while chaos is armed — the
    // serving path must never return corrupt bytes.
    if ((rng() & 7) == 0) {
      lepton::Result r;
      if (!store->get(key, &r) || !r.ok() || r.data != jpeg) {
        std::fprintf(stderr, "crash_store child: self-read of %s failed\n",
                     key.c_str());
        return kChildInvariant;
      }
    }
  }
  // An injected fsync failure here leaves the batch pending; the close
  // barrier (raw) still covers it, and SIGKILL is process death, not power
  // loss — so a false return is not an invariant violation.
  (void)store->sync();
  ::close(ack_fd);
  return kChildDone;
}

// ---------------------------------------------------------------------------
// Parent: spawn, kill, reopen, verify.

struct AckedKey {
  std::string key;
  std::string md5_hex;
};

std::vector<AckedKey> read_acklog(const std::string& path) {
  std::vector<AckedKey> out;
  std::vector<std::uint8_t> raw;
  if (!fio::read_file(path, &raw)) return out;
  std::string text(raw.begin(), raw.end());
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // torn tail: that ack never landed
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    char key[128], md5[64];
    unsigned long long size = 0;
    if (std::sscanf(line.c_str(), "ok %127s %63s %llu", key, md5, &size) == 3) {
      out.push_back({key, md5});
    }
  }
  return out;
}

bool verify_iteration(const std::string& root, const std::string& acklog,
                      int iter, std::uint64_t* verified_total,
                      std::uint64_t* quarantined_total) {
  // Operator path first: fsck must agree there is no loss.
  std::string err;
  FsckReport fsck = DurableStore::fsck(root, &err);
  if (!err.empty() || !fsck.ok()) {
    std::fprintf(stderr, "iter %d: fsck FAILED (lost=%llu) %s\n", iter,
                 static_cast<unsigned long long>(fsck.lost), err.c_str());
    return false;
  }
  *quarantined_total += fsck.quarantined;

  DurableStoreConfig cfg;
  cfg.root = root;
  std::unique_ptr<DurableStore> store = DurableStore::open(std::move(cfg), &err);
  if (store == nullptr) {
    std::fprintf(stderr, "iter %d: reopen failed: %s\n", iter, err.c_str());
    return false;
  }
  DurableStoreStats st = store->stats();
  if (st.recovery.keys_lost != 0) {
    std::fprintf(stderr, "iter %d: recovery lost %llu acknowledged keys\n",
                 iter, static_cast<unsigned long long>(st.recovery.keys_lost));
    return false;
  }

  // Acknowledged ⇒ readable byte-identical.
  std::vector<AckedKey> acked = read_acklog(acklog);
  for (const AckedKey& a : acked) {
    lepton::Result r;
    if (!store->get(a.key, &r)) {
      std::fprintf(stderr, "iter %d: acked key %s missing after recovery\n",
                   iter, a.key.c_str());
      return false;
    }
    if (!r.ok() ||
        lepton::util::Md5::hex_digest({r.data.data(), r.data.size()}) !=
            a.md5_hex) {
      std::fprintf(stderr, "iter %d: acked key %s not byte-identical\n", iter,
                   a.key.c_str());
      return false;
    }
  }
  *verified_total += acked.size();

  // Nothing the store still serves may be corrupt — acked or not.
  for (const std::string& key : store->keys()) {
    lepton::Result r;
    if (!store->get(key, &r) || !r.ok()) {
      std::fprintf(stderr, "iter %d: surviving key %s served an error\n", iter,
                   key.c_str());
      return false;
    }
  }

  // And a full scrub pass over the survivors finds nothing to quarantine.
  store->scrub_pass_now();
  DurableStoreStats after = store->stats();
  if (after.scrub_corrupt_found != 0 || after.scrub_journal_bad_records != 0) {
    std::fprintf(stderr, "iter %d: scrub found corruption post-recovery\n",
                 iter);
    return false;
  }
  return true;
}

int parent_main(int iters, std::uint64_t seed, const std::string& base) {
  std::mt19937_64 rng(seed);
  std::uint64_t verified = 0, quarantined = 0, kills = 0, clean_exits = 0;
  std::string self = "/proc/self/exe";

  int round = -1;
  std::string root, acklog;
  for (int i = 0; i < iters; ++i) {
    // Rotate the store directory every 8 iterations: recovery still runs
    // over several generations of accumulated state, but verification cost
    // stays bounded.
    if (i / 8 != round) {
      round = i / 8;
      std::string dir = base + "/round" + std::to_string(round);
      root = dir + "/store";
      acklog = dir + "/acklog";
      fio::make_dirs(dir);
    }
    std::uint64_t child_seed = seed * 1000 + static_cast<std::uint64_t>(i);
    int fsync_mode = static_cast<int>(child_seed % 3 == 2);  // mostly kAlways

    pid_t pid = ::fork();
    if (pid == 0) {
      std::string seed_s = std::to_string(child_seed);
      std::string mode_s = std::to_string(fsync_mode);
      ::execl(self.c_str(), "crash_store", "--child", root.c_str(),
              acklog.c_str(), seed_s.c_str(), mode_s.c_str(),
              static_cast<char*>(nullptr));
      _exit(127);
    }
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    // Kill at a randomized point mid-traffic. The window spans "barely
    // started" through "several dozen commits in" — and occasionally long
    // enough that the child finishes its budget and exits clean.
    std::uniform_int_distribution<int> kill_ms(1, 900);
    ::usleep(static_cast<useconds_t>(kill_ms(rng)) * 1000);
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) {
      ++kills;
    } else if (WIFEXITED(status) && WEXITSTATUS(status) == kChildDone) {
      ++clean_exits;
    } else {
      std::fprintf(stderr, "iter %d: child died abnormally (status %d)\n", i,
                   status);
      return 1;
    }

    if (!verify_iteration(root, acklog, i, &verified, &quarantined)) return 1;
  }
  std::printf(
      "crash_store OK: %d iterations (%llu SIGKILLed, %llu ran to "
      "completion), %llu acknowledged puts verified byte-identical, "
      "%llu torn/orphaned files quarantined, 0 lost\n",
      iters, static_cast<unsigned long long>(kills),
      static_cast<unsigned long long>(clean_exits),
      static_cast<unsigned long long>(verified),
      static_cast<unsigned long long>(quarantined));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--child") == 0) {
    if (argc != 6) return kChildInvariant;
    return child_main(argv[2], argv[3],
                      std::strtoull(argv[4], nullptr, 10),
                      std::atoi(argv[5]));
  }
  int iters = 25;
  std::uint64_t seed = 1;
  std::string dir = "/tmp/lepton_crash_store";
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--iters" && i + 1 < argc) {
      iters = std::atoi(argv[++i]);
    } else if (a == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: crash_store [--iters N] [--seed S] [--dir DIR]\n");
      return 2;
    }
  }
  return parent_main(iters, seed, dir);
}
