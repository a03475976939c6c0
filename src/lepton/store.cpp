#include "lepton/store.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>

#include "lepton/context.h"
#include "util/md5.h"
#include "util/zlib_util.h"

namespace lepton {
namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void TransparentStore::set_shutoff_file(std::string path) {
  shutoff_file_ = std::move(path);
  shutoff_checked_ns_.store(kNeverChecked, std::memory_order_release);
}

bool TransparentStore::shutoff_active() const {
  if (shutoff_.load(std::memory_order_relaxed)) return true;
  if (shutoff_file_.empty()) return false;
  std::int64_t now = steady_now_ns();
  std::int64_t last = shutoff_checked_ns_.load(std::memory_order_acquire);
  if (last != kNeverChecked && now - last < kShutoffTtlNs) {
    return shutoff_cached_.load(std::memory_order_acquire);
  }
  return recheck_shutoff();
}

bool TransparentStore::recheck_shutoff() const {
  if (shutoff_.load(std::memory_order_relaxed)) return true;
  if (shutoff_file_.empty()) return false;
  struct stat st{};
  bool on = ::stat(shutoff_file_.c_str(), &st) == 0;
  // Publish answer before timestamp (store.h ordering contract): a put()
  // that sees the fresh timestamp sees the matching answer.
  shutoff_cached_.store(on, std::memory_order_release);
  shutoff_checked_ns_.store(steady_now_ns(), std::memory_order_release);
  return on;
}

ContainerCheck check_container(
    std::span<const std::uint8_t> container,
    std::optional<std::span<const std::uint8_t>> original,
    const DecodeOptions& opts) {
  ContainerCheck c;
  VectorSink sink;
  c.code = decode_lepton(container, sink, opts, default_context(), &c.stats);
  c.bytes = std::move(sink.data);
  if (!c.ok()) return c;
  if (!c.stats.payload_exhausted) {
    // Decoded "successfully" but consumed more or fewer bytes than the
    // stream holds: a truncated or padded payload that happened to produce
    // the right output length. Suspect even when the bytes compare equal.
    c.code = util::ExitCode::kShortRead;
  } else if (original.has_value() &&
             !std::equal(c.bytes.begin(), c.bytes.end(), original->begin(),
                         original->end())) {
    c.code = util::ExitCode::kRoundtripFailed;
  }
  return c;
}

StoredObject TransparentStore::put(std::span<const std::uint8_t> file,
                                   PutStats* stats) const {
  StoredObject obj;
  PutStats local;
  local.bytes_in = file.size();

  if (!shutoff_active()) {
    Result enc = encode_jpeg(file, opts_);
    local.lepton_code = enc.code;
    if (enc.ok()) {
      if (admit_converted(file, std::move(enc.data), &obj, &local)) {
        if (stats != nullptr) *stats = local;
        return obj;
      }
      // A compressor that cannot reproduce its input must not admit the
      // file (§5.7): admit_converted classified it kRoundtripFailed; fall
      // through to Deflate.
    }
  } else {
    local.lepton_code = util::ExitCode::kServerShutdown;
  }

  obj.kind = StorageKind::kDeflate;
  obj.payload = util::zlib_compress(file, 6);
  obj.md5_hex = util::Md5::hex_digest({obj.payload.data(),
                                       obj.payload.size()});
  local.bytes_out = obj.payload.size();
  if (stats != nullptr) *stats = local;
  return obj;
}

StoredObject TransparentStore::put_passthrough(
    std::span<const std::uint8_t> file, PutStats* stats) const {
  StoredObject obj;
  obj.kind = StorageKind::kPassthrough;
  obj.payload.assign(file.begin(), file.end());
  obj.md5_hex = util::Md5::hex_digest({obj.payload.data(),
                                       obj.payload.size()});
  if (stats != nullptr) {
    PutStats local;
    local.bytes_in = file.size();
    local.bytes_out = obj.payload.size();
    local.roundtrip_ok = true;  // trivially: the payload *is* the original
    *stats = local;
  }
  return obj;
}

bool TransparentStore::admit_converted(std::span<const std::uint8_t> original,
                                       std::vector<std::uint8_t> container,
                                       StoredObject* out,
                                       PutStats* stats) const {
  PutStats local;
  local.bytes_in = original.size();
  // md5 of the container *before* the round-trip test (§5.7): if memory is
  // corrupted after this point, get() will notice.
  std::string md5 = util::Md5::hex_digest({container.data(),
                                           container.size()});
  local.roundtrip_ok =
      check_container({container.data(), container.size()}, original).ok();
  if (!local.roundtrip_ok) {
    local.lepton_code = util::ExitCode::kRoundtripFailed;
    if (stats != nullptr) *stats = local;
    return false;
  }
  local.lepton_code = util::ExitCode::kSuccess;
  out->kind = StorageKind::kLepton;
  out->payload = std::move(container);
  out->md5_hex = std::move(md5);
  local.bytes_out = out->payload.size();
  if (stats != nullptr) *stats = local;
  return true;
}

Result decode_object(const StoredObject& obj, DecodeStats* decode_stats) {
  Result r;
  if (obj.kind == StorageKind::kLepton) {
    ContainerCheck c =
        check_container({obj.payload.data(), obj.payload.size()});
    if (decode_stats != nullptr) *decode_stats = c.stats;
    r.code = c.code;
    if (c.ok()) {
      r.data = std::move(c.bytes);
    } else if (c.code == util::ExitCode::kShortRead) {
      // put() admitted an exactly-consumed stream, so this is corruption;
      // do not hand the bytes out silently.
      r.message = "payload consumption mismatch on stored object";
    }
    return r;
  }
  if (obj.kind == StorageKind::kPassthrough) {
    // The caller's md5 check is the whole integrity story: the payload is
    // the original file.
    r.data = obj.payload;
    return r;
  }
  if (!util::zlib_decompress({obj.payload.data(), obj.payload.size()},
                             r.data)) {
    r.code = util::ExitCode::kNotAnImage;
    r.message = "corrupt deflate payload";
  }
  return r;
}

Result TransparentStore::get(const StoredObject& obj,
                             DecodeStats* decode_stats) const {
  if (util::Md5::hex_digest({obj.payload.data(), obj.payload.size()}) !=
      obj.md5_hex) {
    Result r;
    r.code = util::ExitCode::kImpossible;
    r.message = "stored payload md5 mismatch";
    return r;
  }
  return decode_object(obj, decode_stats);
}

}  // namespace lepton
