// Deterministic fault injection (failpoints).
//
// The paper's deployment claim — "we have never been unable to decode a
// stored file" — rests on recovery paths that production rarely exercises:
// short writes mid-frame, refused connects, blown memory budgets, slow
// encodes that trip deadlines. A failpoint is a named site in one of those
// paths that a chaos run can arm to misbehave on a *deterministic,
// replayable* schedule, so the requeue/breaker/pass-through machinery can
// be proven against hostile conditions instead of trusted.
//
// Always compiled, off by default. The fast path is one relaxed atomic
// load and a predictable branch:
//
//   if (util::failpoint::armed()) { ... slow path ... }
//
// Nothing else — no string lookup, no lock, no allocation — runs until a
// schedule is armed, so production binaries carry the sites for free.
//
// Schedule grammar (env LEPTON_FAILPOINTS, or arm() directly):
//
//   spec     := entry (';' entry)*
//   entry    := 'seed=' N                 global schedule seed
//             | site '=' action ['@' trigger (',' trigger)*]
//   action   := 'err' [':' ERRNO-NAME-or-number]   fail with errno
//             | 'short'                  partial I/O, then fail
//             | 'delay:' N 'ms'          sleep, then proceed normally
//             | 'fail'                   classified internal failure
//   trigger  := FLOAT in [0,1]           fire with this probability
//             | 'every' N                fire on hits N, 2N, 3N, ...
//             | 'once'                   fire on the first hit only
//             | 'seed' N                 per-site PRNG seed override
//
// Example:
//   LEPTON_FAILPOINTS="fleet.connect=err:ECONNREFUSED@0.3;sock.write=short@seed7;service.encode=delay:50ms@every5"
//
// Probability triggers draw from a per-site xoshiro PRNG seeded from the
// global seed and the site name (util/rng.h), so the same spec + seed
// yields the same fire sequence on every run — chaos runs replay.
//
// Wired sites (grep for the names): sock.read / sock.write (sockio.h),
// fleet.connect (endpoint.cpp), accept (leptond's event loop),
// service.encode / service.decode (leptond's request path),
// codec.mem_gate (the §6.2 decode/encode memory budgets), and the durable
// store's commit path via util/fileio.h — fs.open / fs.write / fs.fsync /
// fs.rename / fs.unlink (fs.write=short really leaves a torn prefix on
// disk before failing, the way a crash mid-write or a dying disk would).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lepton::util::failpoint {

enum class Action : std::uint8_t { kNone, kErr, kShort, kDelay, kFail };

struct Outcome {
  Action action = Action::kNone;
  int err = 0;                          // errno value, for kErr
  std::chrono::milliseconds delay{0};   // for kDelay
  std::uint64_t draw = 0;               // per-site PRNG draw (kShort sizes
                                        // the partial I/O from it)
  bool fired() const { return action != Action::kNone; }
};

namespace detail {
extern std::atomic<bool> g_armed;
}

// The zero-cost-when-disabled check: one relaxed load, one branch.
inline bool armed() {
  return detail::g_armed.load(std::memory_order_relaxed);
}

// Slow path. Evaluates `site` against the armed schedule: bumps the hit
// counter, runs the trigger, and returns what the site should do (kNone =
// proceed normally). Call only behind armed(); unarmed sites return kNone.
Outcome hit(std::string_view site);

// Parses and installs a schedule. Returns false (with *err set) on a
// malformed spec, leaving the previous schedule in place. An empty spec
// disarms.
bool arm(const std::string& spec, std::string* err = nullptr);

// Arms from $LEPTON_FAILPOINTS. Unset/empty env: no-op, returns true.
bool arm_from_env(std::string* err = nullptr);

void disarm();

struct SiteReport {
  std::string site;
  std::uint64_t hits = 0;   // times evaluated
  std::uint64_t fires = 0;  // times the trigger fired
};

// Per-site counters of the armed schedule (empty when disarmed).
std::vector<SiteReport> report();

// Hit indices (1-based) at which `site` fired, capped at 4096 entries —
// the replayability witness tests compare across runs.
std::vector<std::uint64_t> fire_log(std::string_view site);

// STATS-ready text: "failpoint <site> <hits> <fires>\n" per armed site
// (docs/PROTOCOL.md §"STATS"). Empty string when disarmed.
std::string stats_text();

}  // namespace lepton::util::failpoint
