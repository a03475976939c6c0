// The blockserver admit path (§5.7 "Safety Mechanisms").
//
// Production rule: a chunk is admitted in Lepton form only if it
// round-trips — decodes byte-identically to its input — at admit time; the
// compressed buffer is md5-summed before the round-trip test so in-memory
// corruption between check and write is detectable; everything Lepton
// rejects (or that fails the round trip) is stored with Deflate instead.
// "We have never been unable to decode a stored file" rests on this gate.
//
// The container half of that rule lives in one function,
// check_container(): every path that admits or serves a Lepton container
// (put, admit_converted, get, the durable store's scrubber, the
// qualification harness) decodes through it, so a decode whose arithmetic
// payload overran or was left unconsumed is refused everywhere, even when
// the byte count came out right.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lepton/codec.h"

namespace lepton {

enum class StorageKind : std::uint8_t {
  kLepton = 1,
  kDeflate = 2,
  // Degraded-mode admission (§4, §6): the original bytes, untransformed.
  // Chosen when conversion is unavailable *and* spending local CPU on
  // Deflate is not wanted either — the fleet client's fallback when its
  // breaker set is exhausted or a remote encode fails. Durability first;
  // the compression win is an optimization, never a gate.
  kPassthrough = 3,
};

// Stable names for StorageKind — the durable store's journal records the
// kind by name (storage/durable_store.h), so the mapping is part of the
// on-disk format: never rename, only append.
constexpr std::string_view storage_kind_name(StorageKind k) {
  switch (k) {
    case StorageKind::kLepton: return "lepton";
    case StorageKind::kDeflate: return "deflate";
    case StorageKind::kPassthrough: return "passthrough";
  }
  return "?";
}

inline bool parse_storage_kind(std::string_view s, StorageKind* out) {
  for (StorageKind k : {StorageKind::kLepton, StorageKind::kDeflate,
                        StorageKind::kPassthrough}) {
    if (s == storage_kind_name(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

struct StoredObject {
  StorageKind kind = StorageKind::kDeflate;
  std::vector<std::uint8_t> payload;
  std::string md5_hex;  // of payload, taken before the round-trip test
};

// The §5.7 container check, the one rule every admit and serve path applies
// to a Lepton container: decode it and accept it only if the decode
// succeeds with its arithmetic payload exactly consumed (no overrun,
// nothing left over) and, when `original` is given, reproduces it
// byte-for-byte.
struct ContainerCheck {
  // kSuccess = admissible / serveable. kShortRead = decoded, but the
  // payload was not exactly consumed. kRoundtripFailed = decoded and
  // consumed, but not byte-identical to `original`. Anything else is the
  // decoder's own classification.
  util::ExitCode code = util::ExitCode::kSuccess;
  std::vector<std::uint8_t> bytes;  // the decoded output
  DecodeStats stats;                // the raw consumption facts
  bool ok() const { return code == util::ExitCode::kSuccess; }
};

ContainerCheck check_container(
    std::span<const std::uint8_t> container,
    std::optional<std::span<const std::uint8_t>> original = std::nullopt,
    const DecodeOptions& opts = {});

struct PutStats {
  util::ExitCode lepton_code = util::ExitCode::kSuccess;
  bool roundtrip_ok = false;
  std::size_t bytes_in = 0;
  std::size_t bytes_out = 0;
};

// Decodes a stored object whose payload the caller has already verified
// against its md5 (TransparentStore::get, and DurableStore's verified
// read, which must not hash the bytes a second time). Lepton payloads go
// through check_container; a consumption mismatch classifies kShortRead.
// `decode_stats` (optional) receives the raw facts for Lepton objects.
Result decode_object(const StoredObject& obj,
                     DecodeStats* decode_stats = nullptr);

class TransparentStore {
 public:
  explicit TransparentStore(EncodeOptions opts = {}) : opts_(opts) {}

  TransparentStore(const TransparentStore&) = delete;
  TransparentStore& operator=(const TransparentStore&) = delete;

  // Compresses and admits a file: encode, then admit_converted(). Never
  // fails: the Deflate fallback always succeeds. `stats` (optional) reports
  // what happened, in §6.2 terms.
  // Thread-safe: concurrent put() calls on one store are supported (the
  // store holds no per-call state beyond the shutoff cache below).
  StoredObject put(std::span<const std::uint8_t> file,
                   PutStats* stats = nullptr) const;

  // Pass-through admission: stores `file` unmodified (md5-sealed like every
  // object). The fleet client degrades to this when no server can convert —
  // the paper's never-lose-a-byte posture with zero local conversion cost.
  StoredObject put_passthrough(std::span<const std::uint8_t> file,
                               PutStats* stats = nullptr) const;

  // The §5.7 admission gate, for put()'s own encodes and for containers
  // produced *elsewhere* (a fleet conversion): md5 the container first, then
  // require check_container() against `original`. True = *out is the
  // admitted Lepton object; false = the container failed the gate (corrupt
  // or mismatched) and nothing was admitted — the caller falls back, it
  // never stores the container.
  bool admit_converted(std::span<const std::uint8_t> original,
                       std::vector<std::uint8_t> container, StoredObject* out,
                       PutStats* stats = nullptr) const;

  // Retrieves the original bytes: md5 check, then decode_object(). Returns
  // a classified error if the payload is corrupt: md5 mismatch, failed
  // decode, or a "successful" Lepton decode whose arithmetic payload
  // overran / was not exhausted (kShortRead). `decode_stats` (optional)
  // receives the raw facts for Lepton-stored objects.
  Result get(const StoredObject& obj, DecodeStats* decode_stats = nullptr) const;

  // Emergency shutoff (§5.7): when tripped, put() skips Lepton entirely and
  // goes straight to Deflate. The production switch is a file in /dev/shm
  // checked before compressing each chunk; this is the same check as a
  // process-local flag plus an optional file path.
  //
  // Semantics of shutoff_active():
  //  * The process-local flag (set_shutoff) takes effect immediately.
  //  * The file check is cached for kShutoffTtl: put() at fleet rates must
  //    not stat() per chunk, and the §5.7 guarantee is only "compression
  //    stops fleet-wide within ~30 seconds", so a sub-second-stale answer
  //    is well inside contract.
  //  * Safe under concurrent put(): the cache is a pair of atomics.
  //    Racing threads may redundantly stat() once each at refresh time and
  //    may observe the flip up to kShutoffTtl late — never a torn value.
  //  * set_shutoff_file() invalidates the cache (the next check stats).
  //  * The staleness window is therefore exactly kShutoffTtlNs: an operator
  //    who touches the shutoff file can observe shutoff_active() == false
  //    for up to 250 ms afterwards. Layers that must answer an operator
  //    *now* — the serving front-end's SHUTOFF frame (server/protocol.h) —
  //    call recheck_shutoff() instead, which stats unconditionally.
  void set_shutoff(bool on) {
    shutoff_.store(on, std::memory_order_relaxed);
  }
  bool shutoff() const { return shutoff_.load(std::memory_order_relaxed); }
  void set_shutoff_file(std::string path);
  bool shutoff_active() const;

  // Forced re-check: stats the shutoff file now (when one is configured),
  // refreshes the TTL cache with the result, and returns the current state.
  // This is the operator-facing path — put() keeps using the cached
  // shutoff_active() so fleet-rate traffic never stats per chunk, but a
  // SHUTOFF query frame must not answer up to 250 ms stale.
  bool recheck_shutoff() const;

  static constexpr std::int64_t kShutoffTtlNs = 250'000'000;  // 250 ms

 private:
  EncodeOptions opts_;
  // Atomic: the emergency path is a watchdog thread flipping the switch
  // while worker threads are inside put().
  std::atomic<bool> shutoff_{false};
  std::string shutoff_file_;
  // Cached file-stat result: last check time (steady-clock ns; kNeverChecked
  // forces a stat) and the cached answer. Ordering: the answer is published
  // before the timestamp, so a reader that sees a fresh timestamp sees the
  // matching answer.
  static constexpr std::int64_t kNeverChecked =
      std::numeric_limits<std::int64_t>::min();
  mutable std::atomic<std::int64_t> shutoff_checked_ns_{kNeverChecked};
  mutable std::atomic<bool> shutoff_cached_{false};
};

}  // namespace lepton
