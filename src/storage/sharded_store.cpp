#include "storage/sharded_store.h"

#include <filesystem>
#include <utility>

namespace lepton::storage {

namespace {

// The path two configs must not share: "d", "d/" and "x/../d" name one
// root, and so do a symlink and its target once they exist.
std::filesystem::path canonical_root(const std::string& root) {
  std::error_code ec;
  std::filesystem::path p = std::filesystem::weakly_canonical(root, ec);
  if (ec) p = std::filesystem::path(root).lexically_normal();
  return p.has_filename() ? p : p.parent_path();
}

}  // namespace

ShardedStore::ShardedStore(ShardedStoreConfig cfg)
    : cfg_(std::move(cfg)), codec_(cfg_.encode) {
  if (cfg_.decode_cache_bytes > 0) {
    DecodeCacheConfig cc;
    cc.budget_bytes = cfg_.decode_cache_bytes;
    cache_ = std::make_unique<DecodeCache>(cc);
  }
}

ShardedStore::~ShardedStore() = default;

DurableStoreConfig ShardedStore::shard_store_config(
    const ShardBackendConfig& sh) const {
  DurableStoreConfig dc;
  dc.root = sh.root;
  dc.fsync = cfg_.fsync;
  return dc;
}

std::unique_ptr<FleetClient> ShardedStore::make_fleet(
    const ShardBackendConfig& sh) const {
  if (sh.endpoints.empty()) return nullptr;
  FleetClientConfig fc = cfg_.fleet;
  fc.endpoints = sh.endpoints;
  fc.op = FleetOp::kEncode;
  auto client = std::make_unique<FleetClient>(std::move(fc));
  client->start();
  return client;
}

std::unique_ptr<ShardedStore> ShardedStore::open(ShardedStoreConfig cfg,
                                                 std::string* err) {
  if (cfg.shards.empty()) {
    if (err != nullptr) *err = "sharded store needs at least one shard";
    return nullptr;
  }
  std::unique_ptr<ShardedStore> s(new ShardedStore(std::move(cfg)));
  // Every identity is checked before any root is opened: recovery on a
  // root another shard also writes would compact its journal underneath it.
  for (const auto& sh : s->cfg_.shards) {
    std::string why = s->identity_conflict(sh);
    if (!why.empty()) {
      if (err != nullptr) *err = why;
      return nullptr;
    }
    s->ring_.add_shard(sh.name);
    Shard slot;
    slot.cfg = sh;
    s->shards_.push_back(std::move(slot));
  }
  for (Shard& slot : s->shards_) {
    slot.store = DurableStore::open(s->shard_store_config(slot.cfg), err);
    if (slot.store == nullptr) return nullptr;
    slot.fleet = s->make_fleet(slot.cfg);
    slot.alive = true;
  }
  return s;
}

std::string ShardedStore::identity_conflict(
    const ShardBackendConfig& sh) const {
  if (sh.name.empty() || ring_.contains(sh.name)) {
    return "shard name empty or duplicated: '" + sh.name + "'";
  }
  std::filesystem::path root = canonical_root(sh.root);
  for (const Shard& other : shards_) {
    if (canonical_root(other.cfg.root) == root) {
      return "shard root '" + sh.root + "' is already used by shard '" +
             other.cfg.name + "'";
    }
  }
  return {};
}

std::string ShardedStore::cache_key(const std::string& md5_hex,
                                    StorageKind kind) {
  // The storage kind is part of the content address: one payload
  // byte-string can legally decode differently under different kinds
  // (e.g. the same bytes stored pass-through vs as a deflate stream).
  return md5_hex + "/" + std::string(storage_kind_name(kind));
}

std::shared_ptr<DurableStore> ShardedStore::route(std::string_view key,
                                                  int* sid, bool is_put,
                                                  FleetClient** fleet) {
  std::lock_guard<std::mutex> lk(mu_);
  int id = ring_.shard_of(key);
  *sid = id;
  const Shard& sh = shards_[static_cast<std::size_t>(id)];
  ++(is_put ? stats_.puts : stats_.gets);
  if (!sh.alive) {
    ++(is_put ? stats_.puts_unavailable : stats_.gets_unavailable);
    return nullptr;
  }
  // The client lives as long as the store: shards are never removed.
  if (fleet != nullptr) *fleet = sh.fleet.get();
  return sh.store;
}

ShardedPutStats ShardedStore::put(std::string_view key,
                                  std::span<const std::uint8_t> file) {
  return put_routed(key, nullptr, file);
}

ShardedPutStats ShardedStore::put_object(std::string_view key,
                                         const StoredObject& obj) {
  return put_routed(key, &obj, {});
}

ShardedPutStats ShardedStore::put_routed(std::string_view key,
                                         const StoredObject* obj,
                                         std::span<const std::uint8_t> file) {
  ShardedPutStats out;
  FleetClient* fleet = nullptr;
  auto store = route(key, &out.shard, /*is_put=*/true, &fleet);
  if (store == nullptr) {
    out.durable.code = util::ExitCode::kServerShutdown;
    return out;
  }
  StoredObject admitted;
  if (obj == nullptr) {
    if (fleet != nullptr) {
      FleetClient::PutResult pr = fleet->put(codec_, file);
      out.remote_converted = pr.fleet_code == util::ExitCode::kSuccess;
      out.passthrough = pr.passthrough;
      admitted = std::move(pr.object);
    } else {
      admitted = codec_.put(file);
    }
    obj = &admitted;
  }
  StorageKind old_kind{};
  std::string old_md5;
  bool had_old = store->lookup(key, &old_kind, &old_md5, nullptr);
  out.durable = store->put_object(key, *obj);
  // After an acknowledged overwrite, drop the old payload's cache entry.
  if (out.durable.acknowledged && cache_ != nullptr && had_old &&
      (old_md5 != out.durable.md5_hex || old_kind != out.durable.kind)) {
    cache_->invalidate(cache_key(old_md5, old_kind));
  }
  std::lock_guard<std::mutex> lk(mu_);
  ++(out.durable.acknowledged ? stats_.puts_acknowledged : stats_.puts_failed);
  if (out.remote_converted) ++stats_.remote_conversions;
  if (out.passthrough) ++stats_.passthrough_fallbacks;
  return out;
}

bool ShardedStore::get(std::string_view key, Result* out, ShardedGetStats* gs) {
  int sid = -1;
  auto store = route(key, &sid, /*is_put=*/false);
  if (gs != nullptr) {
    gs->shard = sid;
    gs->cache_hit = false;
  }
  if (store == nullptr) {
    // The key may well exist on the dead shard — absence is never claimed
    // here, only unavailability (the §6.6 server-local, retryable class).
    out->code = util::ExitCode::kServerShutdown;
    out->data.clear();
    out->message = "owning shard is down; retryable";
    return true;
  }
  // Cache probe: the index peek names the object the key holds right now.
  StorageKind kind{};
  std::string md5;
  if (!store->lookup(key, &kind, &md5, nullptr)) {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.gets_not_found;
    return false;
  }
  if (cache_ != nullptr) {
    if (DecodeCache::Value v = cache_->get(cache_key(md5, kind))) {
      out->code = util::ExitCode::kSuccess;
      out->message.clear();
      out->data.assign(v->begin(), v->end());
      if (gs != nullptr) gs->cache_hit = true;
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.cache_hits;
      return true;
    }
  }
  // Miss: the verified read. An overwrite may have landed since the probe,
  // so the object read — not the one probed — names the cache entry.
  StoredObject obj;
  util::ExitCode code = util::ExitCode::kSuccess;
  std::string message;
  if (!store->get_object(key, &obj, &code, &message)) {
    // The key vanished between lookup and read (its object was quarantined);
    // report it as the store did.
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.gets_not_found;
    return false;
  }
  if (code == util::ExitCode::kSuccess) {
    *out = decode_object(obj);
  } else {
    out->code = code;
    out->data.clear();
    out->message = std::move(message);
  }
  if (!out->ok()) {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.gets_failed;
    return true;
  }
  if (cache_ != nullptr) {
    auto shared = std::make_shared<const std::vector<std::uint8_t>>(
        std::move(out->data));
    cache_->put(cache_key(obj.md5_hex, obj.kind), shared);
    out->data = *shared;
  }
  return true;
}

bool ShardedStore::contains(std::string_view key) const {
  std::lock_guard<std::mutex> lk(mu_);
  int id = ring_.shard_of(key);
  const Shard& sh = shards_[static_cast<std::size_t>(id)];
  return sh.alive && sh.store->contains(key);
}

int ShardedStore::shard_of(std::string_view key) const {
  std::lock_guard<std::mutex> lk(mu_);
  return ring_.shard_of(key);
}

std::size_t ShardedStore::shard_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return shards_.size();
}

bool ShardedStore::shard_alive(int shard) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (shard < 0 || static_cast<std::size_t>(shard) >= shards_.size()) {
    return false;
  }
  return shards_[static_cast<std::size_t>(shard)].alive;
}

std::vector<std::string> ShardedStore::shard_keys(int shard) const {
  std::shared_ptr<DurableStore> store;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (shard < 0 || static_cast<std::size_t>(shard) >= shards_.size()) {
      return {};
    }
    const Shard& sh = shards_[static_cast<std::size_t>(shard)];
    if (!sh.alive) return {};
    store = sh.store;
  }
  return store->keys();
}

bool ShardedStore::kill_shard(int shard) {
  std::shared_ptr<DurableStore> victim;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (shard < 0 || static_cast<std::size_t>(shard) >= shards_.size()) {
      return false;
    }
    Shard& sh = shards_[static_cast<std::size_t>(shard)];
    if (!sh.alive) return false;
    sh.alive = false;
    sh.scrub = false;
    victim = std::move(sh.store);
    ++stats_.shard_kills;
  }
  // The handle dies outside the lock: in-flight reads holding their own
  // shared_ptr finish safely, then the journal closes and the scrubber
  // joins. (Crash-vs-kill-9 is PR 9's harness; this drill is loss of the
  // backend, not of the machine.)
  victim.reset();
  return true;
}

bool ShardedStore::restart_shard(int shard, std::string* err) {
  ShardBackendConfig cfg;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (shard < 0 || static_cast<std::size_t>(shard) >= shards_.size()) {
      if (err != nullptr) *err = "no such shard";
      return false;
    }
    Shard& sh = shards_[static_cast<std::size_t>(shard)];
    if (sh.alive) return true;
    cfg = sh.cfg;
  }
  // Full recovery runs outside the lock (it can md5-verify a large root);
  // the shard stays routed-but-down until the swap below.
  auto store = DurableStore::open(shard_store_config(cfg), err);
  if (store == nullptr) return false;
  std::lock_guard<std::mutex> lk(mu_);
  Shard& sh = shards_[static_cast<std::size_t>(shard)];
  if (sh.alive) return true;  // lost a restart race; drop our copy
  sh.store = std::move(store);
  sh.alive = true;
  ++stats_.shard_restarts;
  return true;
}

bool ShardedStore::add_shard(ShardBackendConfig shard, std::string* err) {
  // Held throughout: no shard may die, restart or join while the ring
  // grows and the remapped keys move.
  std::lock_guard<std::mutex> lk(mu_);
  // A dead shard's keys cannot be moved, and after the add the ring would
  // route its remapped keys away from the only copy.
  std::string why;
  for (std::size_t i = 0; i < shards_.size() && why.empty(); ++i) {
    if (!shards_[i].alive) {
      why = "restart shard " + std::to_string(i) + " first";
    }
  }
  if (why.empty()) why = identity_conflict(shard);
  if (!why.empty()) {
    if (err != nullptr) *err = why;
    return false;
  }
  auto store = DurableStore::open(shard_store_config(shard), err);
  if (store == nullptr) return false;
  const HashRing before = ring_;
  int id = ring_.add_shard(shard.name);
  // Migrate exactly the keys whose ring owner changed — by construction of
  // the ring these all now map to the new shard — each from its owner
  // before the add, which holds the current version. Objects move at rest
  // (no decode); the source copy stays behind as an inert shadow the ring
  // no longer routes to, and shadows are never copied.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    DurableStore& src = *shards_[i].store;
    for (const std::string& key : src.keys()) {
      if (ring_.shard_of(key) != id ||
          before.shard_of(key) != static_cast<int>(i)) {
        continue;
      }
      StoredObject obj;
      util::ExitCode code = util::ExitCode::kSuccess;
      if (!src.get_object(key, &obj, &code) ||
          code != util::ExitCode::kSuccess ||
          !store->put_object(key, obj).acknowledged) {
        ++stats_.migrate_read_errors;
        continue;
      }
      ++stats_.migrated_objects;
    }
  }
  Shard slot;
  slot.cfg = std::move(shard);
  slot.store = std::move(store);
  slot.fleet = make_fleet(slot.cfg);
  slot.alive = true;
  shards_.push_back(std::move(slot));
  return true;
}

void ShardedStore::set_shutoff(bool on) {
  codec_.set_shutoff(on);
  if (!on) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.shutoff_drills;
  }
  if (cache_ != nullptr) cache_->invalidate_all();
}

bool ShardedStore::sync() {
  std::vector<std::shared_ptr<DurableStore>> live;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (Shard& sh : shards_) {
      if (sh.alive) live.push_back(sh.store);
    }
  }
  bool ok = true;
  for (auto& s : live) ok = s->sync() && ok;
  return ok;
}

void ShardedStore::start_scrubbers(ScrubberConfig cfg) {
  std::lock_guard<std::mutex> lk(mu_);
  for (Shard& sh : shards_) {
    if (sh.alive) {
      sh.store->start_scrubber(cfg);
      sh.scrub = true;
    }
  }
}

void ShardedStore::stop_scrubbers() {
  std::lock_guard<std::mutex> lk(mu_);
  for (Shard& sh : shards_) {
    if (sh.alive && sh.scrub) {
      sh.store->stop_scrubber();
      sh.scrub = false;
    }
  }
}

ShardedStoreStats ShardedStore::stats() const {
  ShardedStoreStats out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    out = stats_;
  }
  if (cache_ != nullptr) out.cache = cache_->stats();
  return out;
}

}  // namespace lepton::storage
