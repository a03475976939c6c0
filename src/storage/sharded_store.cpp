#include "storage/sharded_store.h"

#include <utility>

namespace lepton::storage {

ShardedStore::ShardedStore(ShardedStoreConfig cfg) : cfg_(std::move(cfg)) {
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
  dc.encode = cfg_.encode;
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
  for (const auto& sh : s->cfg_.shards) {
    if (sh.name.empty() || s->ring_.contains(sh.name)) {
      if (err != nullptr) {
        *err = "shard name empty or duplicated: '" + sh.name + "'";
      }
      return nullptr;
    }
    auto store = DurableStore::open(s->shard_store_config(sh), err);
    if (store == nullptr) return nullptr;
    s->ring_.add_shard(sh.name);
    Shard slot;
    slot.cfg = sh;
    slot.store = std::move(store);
    slot.fleet = s->make_fleet(sh);
    slot.alive = true;
    s->shards_.push_back(std::move(slot));
  }
  return s;
}

std::string ShardedStore::cache_key(const std::string& md5_hex,
                                    StorageKind kind) {
  // The storage kind is part of the content address: one payload
  // byte-string can legally decode differently under different kinds
  // (e.g. the same bytes stored pass-through vs as a deflate stream).
  return md5_hex + "/" + std::string(storage_kind_name(kind));
}

std::shared_ptr<DurableStore> ShardedStore::route(std::string_view key,
                                                  int* sid, bool is_put) {
  std::lock_guard<std::mutex> lk(mu_);
  int id = ring_.shard_of(key);
  *sid = id;
  const Shard& sh = shards_[static_cast<std::size_t>(id)];
  ++(is_put ? stats_.puts : stats_.gets);
  if (!sh.alive) {
    ++(is_put ? stats_.puts_unavailable : stats_.gets_unavailable);
    return nullptr;
  }
  return sh.store;
}

void ShardedStore::finish_put(const std::string& old_cache_key,
                              ShardedPutStats* out) {
  if (out->durable.acknowledged && cache_ != nullptr &&
      !old_cache_key.empty()) {
    std::string new_key = cache_key(out->durable.md5_hex, out->durable.kind);
    if (new_key != old_cache_key) cache_->invalidate(old_cache_key);
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (out->durable.acknowledged) {
    ++stats_.puts_acknowledged;
  } else {
    ++stats_.puts_failed;
  }
  if (out->remote_converted) ++stats_.remote_conversions;
  if (out->passthrough) ++stats_.passthrough_fallbacks;
}

ShardedPutStats ShardedStore::put(std::string_view key,
                                  std::span<const std::uint8_t> file) {
  ShardedPutStats out;
  auto store = route(key, &out.shard, /*is_put=*/true);
  if (store == nullptr) {
    out.durable.code = util::ExitCode::kServerShutdown;
    return out;
  }
  StorageKind old_kind{};
  std::string old_md5;
  bool had_old = store->lookup(key, &old_kind, &old_md5, nullptr);
  FleetClient* fleet;
  {
    std::lock_guard<std::mutex> lk(mu_);
    fleet = shards_[static_cast<std::size_t>(out.shard)].fleet.get();
  }
  if (fleet != nullptr) {
    FleetClient::PutResult pr = fleet->put(store->codec(), file);
    out.remote_converted = !pr.passthrough;
    out.passthrough = pr.passthrough;
    out.durable = store->put_object(key, pr.object);
  } else {
    out.durable = store->put(key, file);
  }
  finish_put(had_old ? cache_key(old_md5, old_kind) : std::string(), &out);
  return out;
}

ShardedPutStats ShardedStore::put_object(std::string_view key,
                                         const StoredObject& obj) {
  ShardedPutStats out;
  auto store = route(key, &out.shard, /*is_put=*/true);
  if (store == nullptr) {
    out.durable.code = util::ExitCode::kServerShutdown;
    return out;
  }
  StorageKind old_kind{};
  std::string old_md5;
  bool had_old = store->lookup(key, &old_kind, &old_md5, nullptr);
  out.durable = store->put_object(key, obj);
  finish_put(had_old ? cache_key(old_md5, old_kind) : std::string(), &out);
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
  store->codec().set_shutoff(shutoff_);
  sh.store = std::move(store);
  sh.alive = true;
  ++stats_.shard_restarts;
  return true;
}

bool ShardedStore::add_shard(ShardBackendConfig shard, std::string* err) {
  auto store = DurableStore::open(shard_store_config(shard), err);
  if (store == nullptr) return false;
  std::lock_guard<std::mutex> lk(mu_);
  if (shard.name.empty() || ring_.contains(shard.name)) {
    if (err != nullptr) {
      *err = "shard name empty or duplicated: '" + shard.name + "'";
    }
    return false;
  }
  int id = ring_.add_shard(shard.name);
  // Migrate exactly the keys whose ring owner changed — by construction of
  // the ring these all now map to the new shard, so a single membership
  // test per key finds them. Objects move at rest (no decode); the source
  // copy stays behind as an inert shadow the ring no longer routes to.
  for (auto& old : shards_) {
    if (!old.alive) continue;  // a dead shard's keys surface after restart
    for (const std::string& key : old.store->keys()) {
      if (ring_.shard_of(key) != id) continue;
      StoredObject obj;
      util::ExitCode code = util::ExitCode::kSuccess;
      if (!old.store->get_object(key, &obj, &code) ||
          code != util::ExitCode::kSuccess) {
        ++stats_.migrate_read_errors;
        continue;
      }
      DurablePutStats dps = store->put_object(key, obj);
      if (!dps.acknowledged) {
        ++stats_.migrate_read_errors;
        continue;
      }
      ++stats_.migrated_objects;
    }
  }
  store->codec().set_shutoff(shutoff_);
  Shard slot;
  slot.cfg = std::move(shard);
  slot.store = std::move(store);
  slot.fleet = make_fleet(slot.cfg);
  slot.alive = true;
  shards_.push_back(std::move(slot));
  return true;
}

void ShardedStore::set_shutoff(bool on) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutoff_ = on;
    for (Shard& sh : shards_) {
      if (sh.alive) sh.store->codec().set_shutoff(on);
    }
    if (on) ++stats_.shutoff_drills;
  }
  if (on && cache_ != nullptr) cache_->invalidate_all();
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
