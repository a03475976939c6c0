// Background integrity scrubber for DurableStore (durable_store.h).
//
// Disks rot: the paper's posture of layered verification only holds if
// someone actually re-reads the bytes. The scrubber walks every live
// object on a cycle through the store's one verified read (size and md5
// against the journal entry), runs the §5.7 check_container spot-check on
// every Nth kLepton object (the same rule the serving path applies), and
// re-validates the journal's own record checksums. Anything that fails is
// quarantined through the store's normal never-delete path and counted in
// `scrub_*` stats.
//
// Reads are token-bucket rate-limited so a scrub pass never competes with
// serving traffic for disk bandwidth; all scrub I/O is raw (unrouted past
// the failpoint shim) so an armed chaos schedule cannot blind the
// detector it is supposed to exercise.
#pragma once

#include <condition_variable>
#include <mutex>
#include <thread>

#include "storage/durable_store.h"

namespace lepton::storage {

class Scrubber {
 public:
  Scrubber(DurableStore* store, ScrubberConfig cfg)
      : store_(store), cfg_(cfg) {}
  ~Scrubber() { stop(); }

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  void start();
  void stop();

  // One full pass over the current snapshot, synchronously, without rate
  // limiting (tests and fsck drills call this via scrub_pass_now()).
  void run_pass();

 private:
  void thread_main();
  // Sleeps long enough to keep reads under the configured budget; returns
  // false when stop() was requested during the wait.
  bool throttle(std::uint64_t bytes_read);

  DurableStore* store_;
  ScrubberConfig cfg_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool running_ = false;
};

}  // namespace lepton::storage
