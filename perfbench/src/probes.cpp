#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>

#include "jpeg/parser.h"
#include "jpeg/scan_decoder.h"
#include "jpeg/scan_encoder.h"
#include "lepton/codec.h"
#include "lepton/store.h"
#include "leptond/event_server.h"
#include "server/client.h"
#include "storage/sharded_store.h"
#include "util/md5.h"
#include "workloads.h"

namespace perfbench {

void abort_wrong_bytes(const std::string& what) {
  std::fprintf(stderr, "perfbench: WRONG BYTES: %s\n", what.c_str());
  std::fflush(stderr);
  std::fflush(stdout);
  _exit(3);
}

double CodecRates::ms_per_mb(int b, double Band::*field) const {
  const Band& x = band[b].mb > 0 ? band[b] : band[3];
  return x.mb > 0 ? x.*field * 1e3 / x.mb : 0;
}

CodecRates codec_probes(const std::vector<InputFile>& files, SpanRecorder& rec,
                        MetricSheet& m) {
  using namespace lepton;
  CodecRates rates;
  EncodeOptions prod;
  EncodeOptions one;
  one.run_parallel = false;
  DecodeOptions dprod;
  DecodeOptions done;
  done.run_parallel = false;
  TransparentStore admit_store(prod);

  std::uint64_t request = 1u << 30;
  for (const InputFile& f : files) {
    if (f.band < 0) continue;
    std::span<const std::uint8_t> jpeg(f.bytes);
    Span root{"probe", rec.now(), 0, -1, ++request};
    std::vector<Span> kids;
    auto timed = [&](const char* name, auto&& fn) {
      double a = rec.now();
      fn();
      double b = rec.now();
      kids.push_back({name, a, b, -1, request});
      return b - a;
    };
    Result enc, enc1, dec, dec1, got;
    jpegfmt::JpegFile jf;
    jpegfmt::ScanDecodeResult sd;
    std::vector<std::uint8_t> scan;
    StoredObject obj;
    CodecRates::Band t;
    t.encode = timed("lepton.encode", [&] { enc = encode_jpeg(jpeg, prod); });
    t.encode_1t = timed("lepton.encode_1t", [&] { enc1 = encode_jpeg(jpeg, one); });
    t.parse = timed("jpeg.parse_jpeg", [&] { jf = jpegfmt::parse_jpeg(jpeg); });
    t.huffman_decode = timed("jpeg.decode_scan", [&] { sd = jpegfmt::decode_scan(jf); });
    t.decode = timed("lepton.decode", [&] { dec = decode_lepton(enc.data, dprod); });
    t.decode_1t = timed("lepton.decode_1t", [&] { dec1 = decode_lepton(enc.data, done); });
    t.huffman_encode = timed("jpeg.encode_scan", [&] {
      scan = jpegfmt::encode_scan(jf, sd.coeffs, sd.pad_bit, sd.rst_count);
    });
    t.md5 = timed("util.md5", [&] { (void)util::Md5::hex_digest(enc.data); });
    timed("lepton.admit", [&] { obj = admit_store.put(jpeg); });
    t.miss_decode = timed("storage.miss_decode", [&] { got = admit_store.get(obj); });
    root.end_s = rec.now();
    if (!enc.ok() || enc1.data != enc.data || dec.data != f.bytes ||
        dec1.data != f.bytes || got.data != f.bytes || scan.empty() ||
        obj.kind != StorageKind::kLepton) {
      abort_wrong_bytes("codec probe round trip of " + f.label);
    }
    int root_ix = rec.add(root);
    for (Span& k : kids) {
      k.parent = root_ix;
      rec.add(k);
    }
    t.mb = static_cast<double>(f.bytes.size()) / 1e6;
    for (int b : {f.band, 3}) {
      CodecRates::Band& x = rates.band[b];
      x.mb += t.mb;
      x.encode += t.encode;
      x.encode_1t += t.encode_1t;
      x.parse += t.parse;
      x.huffman_decode += t.huffman_decode;
      x.decode += t.decode;
      x.decode_1t += t.decode_1t;
      x.huffman_encode += t.huffman_encode;
      x.md5 += t.md5;
      x.miss_decode += t.miss_decode;
    }
  }
  using B = CodecRates::Band;
  auto all = [&](double B::*f) { return rates.ms_per_mb(3, f); };
  m.set("lepton.encode_ms_per_MB", all(&B::encode), "ms/MB");
  m.set("lepton.encode_1t_ms_per_MB", all(&B::encode_1t), "ms/MB");
  m.set("jpeg.parse_ms_per_MB", all(&B::parse), "ms/MB");
  m.set("jpeg.huffman_decode_ms_per_MB", all(&B::huffman_decode), "ms/MB");
  m.set("coding.arith_encode_ms_per_MB",
        all(&B::encode_1t) - all(&B::parse) - all(&B::huffman_decode), "ms/MB");
  m.set("lepton.decode_ms_per_MB", all(&B::decode), "ms/MB");
  m.set("lepton.decode_1t_ms_per_MB", all(&B::decode_1t), "ms/MB");
  m.set("jpeg.huffman_encode_ms_per_MB", all(&B::huffman_encode), "ms/MB");
  m.set("coding.arith_decode_ms_per_MB",
        all(&B::decode_1t) - all(&B::huffman_encode), "ms/MB");
  m.set("util.md5_ms_per_MB", all(&B::md5), "ms/MB");
  m.set("storage.miss_decode_ms_per_MB", all(&B::miss_decode), "ms/MB");
  return rates;
}

void side_server_probe(const std::vector<InputFile>& files, MetricSheet& m) {
  using namespace lepton;
  leptond::EventServerConfig cfg;
  cfg.listen = "tcp:127.0.0.1:0";
  cfg.workers = kClients;
  leptond::EventServer server(cfg);
  if (!server.start()) abort_wrong_bytes("side probe server: " + server.last_error());
  auto cli = server::LeptonClient::connect(server.bound_address());
  std::vector<double> ping_us, client_ms;
  for (int i = 0; i < 64; ++i) {
    auto t0 = Clock::now();
    auto r = cli.ping();
    if (r.transport_ok) ping_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  for (const InputFile& f : files) {
    if (f.band < 0) continue;
    Result enc = encode_jpeg(f.bytes);
    auto t0 = Clock::now();
    auto r = cli.decode(enc.data);
    client_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    if (r.ok() && r.data != f.bytes) abort_wrong_bytes("side probe decode " + f.label);
  }
  auto st = server.stats();
  double server_p50 = st.request_s.percentile(50) * 1e3;
  m.set("server.ping_rtt_us", median(ping_us), "us");
  m.set("server.request_ms_p50", server_p50, "ms");
  m.set("server.wire_ms_p50", median(client_ms) - server_p50, "ms");
  m.set("server.ttfb_ms_p50", st.ttfb_s.percentile(50) * 1e3, "ms");
  m.set("server.in_flight_peak", st.in_flight_peak, "count");
  m.set("server.protocol_errors", static_cast<double>(st.protocol_errors), "count");
  m.set("server.disconnects", static_cast<double>(st.disconnects), "count");
  cli.close();
  server.stop();
}

void side_store_probe(const std::vector<InputFile>& files, const std::string& dir,
                      MetricSheet& m) {
  using namespace lepton;
  std::filesystem::remove_all(dir);
  storage::ShardedStoreConfig cfg;
  for (int s = 0; s < 4; ++s) {
    cfg.shards.push_back({"shard" + std::to_string(s),
                          dir + "/shard" + std::to_string(s), {}});
  }
  cfg.fsync = storage::FsyncMode::kBatch;
  std::string err;
  auto store = storage::ShardedStore::open(cfg, &err);
  if (store == nullptr) abort_wrong_bytes("side probe store: " + err);
  TransparentStore admit(cfg.encode);
  std::vector<double> admit_ms, commit_ms, hit_us, miss_ms, residual_ms, ring_ns;
  std::vector<std::string> keys;
  for (const InputFile& f : files) {
    if (f.band != 0) continue;
    std::string key = "probe/" + f.label;
    auto t0 = Clock::now();
    StoredObject obj = admit.put(f.bytes);
    admit_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    t0 = Clock::now();
    auto ps = store->put_object(key, obj);
    commit_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    if (!ps.durable.acknowledged) abort_wrong_bytes("side probe commit " + key);
    for (int rep = 0; rep < 3; ++rep) {
      Result out;
      storage::ShardedGetStats gs;
      t0 = Clock::now();
      bool found = store->get(key, &out, &gs);
      double s = seconds_between(t0, Clock::now());
      if (!found || out.data != f.bytes) abort_wrong_bytes("side probe get " + key);
      if (gs.cache_hit) {
        hit_us.push_back(s * 1e6);
        continue;
      }
      // The miss residual: the miss minus the md5-checked decode it did.
      miss_ms.push_back(s * 1e3);
      t0 = Clock::now();
      Result again = admit.get(obj);
      residual_ms.push_back(s * 1e3 - seconds_between(t0, Clock::now()) * 1e3);
      if (again.data != f.bytes) abort_wrong_bytes("side probe decode " + key);
    }
    keys.push_back(key);
  }
  for (int rep = 0; rep < 200; ++rep) {
    auto t0 = Clock::now();
    for (int i = 0; i < 64; ++i) {
      for (const auto& k : keys) (void)store->shard_of(k);
    }
    ring_ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                      static_cast<double>(64 * keys.size()));
  }
  m.set("lepton.admit_ms_p50", median(admit_ms), "ms");
  m.set("storage.commit_ms_p50", median(commit_ms), "ms");
  m.set("storage.miss_residual_ms", median(residual_ms), "ms");
  m.set("storage.get_hit_us_p50", median(hit_us), "us");
  m.set("storage.get_miss_ms_p50", median(miss_ms), "ms");
  m.set("storage.ring_lookup_ns", median(ring_ns), "ns");
  store.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
