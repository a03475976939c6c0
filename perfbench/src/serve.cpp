// serve_decode and serve_encode: closed loops of LeptonClient requests
// against an in-process leptond::EventServer on TCP loopback, so one
// process generates the load, getrusage covers client and server, and the
// server's own stats are read directly.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "lepton/codec.h"
#include "leptond/event_server.h"
#include "server/client.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using lepton::EncodeOptions;
using lepton::Result;
using lepton::leptond::EventServer;
using lepton::server::LeptonClient;

// Set-up is timed this many times and setup_s is the median.
constexpr int kSetupReps = 5;
// Length of each of serve_decode's two put passes.
constexpr double kPutPassSeconds = 1.5;

// Positions entries[j] evenly over a deck of `total` slots: entry j sits at
// (j + 0.5) * total / n.
void spread(const std::vector<int>& entries, std::size_t total,
            std::vector<std::pair<double, int>>* slots) {
  for (std::size_t j = 0; j < entries.size(); ++j) {
    slots->emplace_back((static_cast<double>(j) + 0.5) * static_cast<double>(total) /
                            static_cast<double>(entries.size()),
                        entries[j]);
  }
}

std::vector<int> merge(std::vector<std::pair<double, int>> slots) {
  std::stable_sort(slots.begin(), slots.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<int> deck;
  for (auto& s : slots) deck.push_back(s.second);
  return deck;
}

// The request deck, which every client walks from its own offset. Every
// valid file is requested equally often — the repo holds no record of how
// often files of each size are read, so this is an assumption, and with
// the serve pool's 14/9/9 files it puts about 44/28/28 % of valid requests
// in the three threads_for_size bands. One cycle holds each valid file once, its
// bands spread evenly (the seed shuffles the files within a band), so any
// stretch of a cycle's length sees every file. The deck repeats the cycle
// until it holds a multiple of 200 valid requests, and spreads over it the
// anomalies of serve_encode at their per-200 shares, which makes them
// about 11 % of requests.
std::vector<int> build_deck(const std::vector<InputFile>& inputs, std::uint64_t seed) {
  std::vector<int> bands[3], anomalies;
  for (int i = 0; i < static_cast<int>(inputs.size()); ++i) {
    const InputFile& f = inputs[static_cast<std::size_t>(i)];
    if (f.band >= 0) bands[f.band].push_back(i);
    anomalies.insert(anomalies.end(), static_cast<std::size_t>(f.per_200), i);
  }
  lepton::util::Rng rng(seed);
  auto shuffle = [&](std::vector<int>& e) {
    for (std::size_t i = e.size(); i > 1; --i) std::swap(e[i - 1], e[rng.below(i)]);
  };
  std::vector<std::pair<double, int>> slots;
  std::size_t valid = 0;
  for (auto& e : bands) valid += e.size();
  for (auto& e : bands) {
    shuffle(e);
    spread(e, valid, &slots);
  }
  const std::vector<int> cycle = merge(slots);
  const std::size_t cycles = 200 / std::gcd(valid, std::size_t{200});
  std::vector<int> valid_entries, anomaly_entries;
  for (std::size_t c = 0; c < cycles; ++c) {
    valid_entries.insert(valid_entries.end(), cycle.begin(), cycle.end());
  }
  for (std::size_t c = 0; c < valid_entries.size() / 200; ++c) {
    anomaly_entries.insert(anomaly_entries.end(), anomalies.begin(), anomalies.end());
  }
  shuffle(anomaly_entries);
  std::size_t total = valid_entries.size() + anomaly_entries.size();
  slots.clear();
  spread(valid_entries, total, &slots);
  spread(anomaly_entries, total, &slots);
  return merge(slots);
}

int largest_input(const std::vector<InputFile>& inputs) {
  int best = 0;
  for (int i = 0; i < static_cast<int>(inputs.size()); ++i) {
    if (inputs[static_cast<std::size_t>(i)].bytes.size() >
        inputs[static_cast<std::size_t>(best)].bytes.size()) {
      best = i;
    }
  }
  return best;
}

std::unique_ptr<EventServer> start_server(const EncodeOptions& enc) {
  lepton::leptond::EventServerConfig cfg;
  cfg.listen = "tcp:127.0.0.1:0";
  cfg.workers = kClients;
  cfg.service.encode_opts = enc;
  cfg.service.decode_cache_bytes = 0;
  auto server = std::make_unique<EventServer>(cfg);
  if (!server->start()) abort_wrong_bytes("server start: " + server->last_error());
  return server;
}

std::vector<LeptonClient> connect_clients(const EventServer& server) {
  std::vector<LeptonClient> out;
  for (int c = 0; c < kClients; ++c) {
    out.push_back(LeptonClient::connect(server.bound_address()));
    if (!out.back().ok() || !out.back().ping().ok()) {
      abort_wrong_bytes("client connect: " + out.back().message());
    }
  }
  return out;
}

// In-process encodes of every input with the server's options, on the
// client threads: the references served bytes are checked against.
void reference_encodes(const std::vector<InputFile>& inputs, const EncodeOptions& enc,
                       std::vector<Result>* refs) {
  refs->assign(inputs.size(), {});
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i; (i = next++) < inputs.size();) {
        (*refs)[i] = lepton::encode_jpeg(inputs[i].bytes, enc);
      }
    });
  }
  for (auto& t : threads) t.join();
}

struct LoopResult {
  std::vector<double> lat_ms, ttfb_ms;
  std::vector<int> file_of;  // input index per latency sample
  std::vector<double> ping_us;
  double mb = 0, wall_s = 0, cpu_s = 0, rss_growth_mb = 0, steal_s = 0;
  double container_bytes = 0, jpeg_bytes = 0;  // successful valid encodes
  double segments = 0, codec_ops = 0;
  std::uint64_t attempted = 0, failed = 0;
};

LoopResult serve_loop(std::vector<LeptonClient>& clients, const std::string& endpoint,
                      const std::vector<InputFile>& inputs,
                      const std::vector<Result>& refs, const std::vector<int>& deck,
                      bool decode, const EncodeOptions& enc, std::size_t deck_offset,
                      double seconds, SpanRecorder* rec) {
  LoopResult total;
  std::mutex mu;
  // Hand set-up's freed heap back first, so the peak above this level is
  // what the loop itself holds and not what set-up happened to leave.
  malloc_trim(0);
  double rss0 = current_rss_mb();
  double cpu0 = process_cpu_seconds();
  LoopMonitor monitor;
  auto start = monitor.start();
  auto deadline = start + std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      LeptonClient& cli = clients[static_cast<std::size_t>(t)];
      // Every client opens with the largest input, so the peak memory of
      // four concurrent largest requests is always inside the run.
      std::size_t at = deck_offset + static_cast<std::size_t>(t) * deck.size() / kClients;
      LoopResult r;
      for (std::uint64_t op = 0; Clock::now() < deadline; ++op) {
        std::uint64_t request = (static_cast<std::uint64_t>(t) << 40) | op;
        if (rec != nullptr && op % 16 == 0) {
          double a = rec->now();
          auto p = cli.ping();
          double b = rec->now();
          if (p.transport_ok) {
            r.ping_us.push_back((b - a) * 1e6);
            rec->add({"client.ping", a, b, -1, request});
          }
        }
        int i = op == 0 ? largest_input(inputs) : deck[at++ % deck.size()];
        const InputFile& f = inputs[static_cast<std::size_t>(i)];
        const Result& ref = refs[static_cast<std::size_t>(i)];
        double a = rec != nullptr ? rec->now() : 0;
        auto t0 = Clock::now();
        auto res = decode ? cli.decode(ref.data) : cli.encode(f.bytes);
        double ms = seconds_between(t0, Clock::now()) * 1e3;
        if (rec != nullptr) {
          rec->add({decode ? "client.decode" : "client.encode", a, rec->now(), -1,
                    request});
        }
        ++r.attempted;
        bool expected;
        if (decode) {
          expected = res.ok();
          if (expected && res.data != f.bytes) abort_wrong_bytes("served decode of " + f.label);
        } else {
          expected = res.transport_ok && res.code == ref.code;
          if (expected && ref.ok() && res.data != ref.data) {
            abort_wrong_bytes("served encode of " + f.label);
          }
        }
        // After any trailer but success the server closes the connection
        // (docs/PROTOCOL.md); reconnecting is outside the request's time.
        if (!res.ok()) cli = LeptonClient::connect(endpoint);
        if (!expected) {
          ++r.failed;
          std::fprintf(stderr, "perfbench: %s of %s: %s %s\n",
                       decode ? "decode" : "encode", f.label.c_str(),
                       std::string(lepton::util::exit_code_name(res.code)).c_str(),
                       res.message.c_str());
          continue;
        }
        r.lat_ms.push_back(ms);
        r.ttfb_ms.push_back(res.ttfb_s * 1e3);
        r.file_of.push_back(i);
        r.mb += static_cast<double>(f.bytes.size()) / 1e6;
        if (f.band >= 0) {
          r.segments += lepton::threads_for_size(f.bytes.size(), enc.max_threads);
          r.codec_ops += 1;
          if (!decode) {
            r.container_bytes += static_cast<double>(res.data.size());
            r.jpeg_bytes += static_cast<double>(f.bytes.size());
          }
        }
      }
      std::lock_guard<std::mutex> lk(mu);
      auto append = [](auto& dst, const auto& src) {
        dst.insert(dst.end(), src.begin(), src.end());
      };
      append(total.lat_ms, r.lat_ms);
      append(total.ttfb_ms, r.ttfb_ms);
      append(total.file_of, r.file_of);
      append(total.ping_us, r.ping_us);
      total.mb += r.mb;
      total.container_bytes += r.container_bytes;
      total.jpeg_bytes += r.jpeg_bytes;
      total.segments += r.segments;
      total.codec_ops += r.codec_ops;
      total.attempted += r.attempted;
      total.failed += r.failed;
    });
  }
  for (auto& t : threads) t.join();
  total.wall_s = seconds_between(start, Clock::now());
  total.cpu_s = process_cpu_seconds() - cpu0;
  monitor.stop();
  total.steal_s = monitor.steal_s();
  total.rss_growth_mb = monitor.peak_rss_mb() - rss0;
  return total;
}

}  // namespace

RunOutput run_serve(const RunArgs& args, bool decode) {
  RunOutput out;
  std::string cache = args.work_dir + "/inputs";
  std::vector<InputFile> inputs = serve_pool(args.seed, cache);
  if (!decode) {
    for (auto& f : anomaly_pool(args.seed, cache)) inputs.push_back(std::move(f));
  }
  const std::vector<int> deck = build_deck(inputs, args.seed);
  const EncodeOptions enc;

  // Set-up, timed kSetupReps times: server start, reference encodes,
  // client connections. The last repetition's rig is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<EventServer> server;
  std::vector<LeptonClient> clients;
  std::vector<Result> refs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    clients.clear();
    if (server != nullptr) server->stop();
    auto t0 = Clock::now();
    server = start_server(enc);
    reference_encodes(inputs, enc, &refs);
    clients = connect_clients(*server);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  double jpeg_total = 0, container_total = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].band < 0) continue;
    if (!refs[i].ok()) {
      out.correct = false;
      out.notes.push_back("reference encode failed for " + inputs[i].label);
    }
    jpeg_total += static_cast<double>(inputs[i].bytes.size());
    container_total += static_cast<double>(refs[i].data.size());
  }
  if (!out.correct) return out;

  const std::string name = decode ? "serve_decode" : "serve_encode";
  MetricSheet& m = out.metrics;
  if (!args.trace) {
    // serve_decode writes nothing; its put latency is that of the upload
    // that made a served container: an in-process encode with the server's
    // options, one at a time, cycling through the small inputs for
    // kPutPassSeconds before the loop and again after it, so the median
    // rests on a few hundred encodes: the median of a few dozen moved by a
    // tenth between two passes over the same files.
    std::vector<double> put_ms;
    auto put_pass = [&] {
      auto end = Clock::now() + std::chrono::duration<double>(kPutPassSeconds);
      while (Clock::now() < end) {
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          if (inputs[i].band != 0) continue;
          auto t0 = Clock::now();
          Result res = lepton::encode_jpeg(inputs[i].bytes, enc);
          put_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
          if (res.data != refs[i].data) abort_wrong_bytes("put encode of " + inputs[i].label);
        }
      }
    };
    if (decode) put_pass();
    LoopResult r = serve_loop(clients, server->bound_address(), inputs, refs, deck,
                              decode, enc, 0, args.seconds, nullptr);
    if (decode) put_pass();
    out.attempted = r.attempted;
    out.failed = r.failed;
    // A serve loop holds 500-1000 requests, too few for p99 under the
    // ten-beyond rule, and a percentile that changed with the request
    // count would jump between runs: the tail is p95 at most.
    double tail = std::min(95.0, supported_tail_percentile(r.lat_ms.size()));
    double p50 = median(r.lat_ms);
    m.set("throughput_MBps", r.mb / r.wall_s, "MB/s");
    m.set("latency_p50_ms", p50, "ms");
    m.set("ttfb_p50_ms", median(r.ttfb_ms), "ms");
    m.set("cpu_s_per_MB", r.cpu_s / r.mb, "s/MB");
    m.set("put_latency_p50_ms", decode ? median(put_ms) : p50, "ms");
    m.set("latency_p99_ms", percentile(r.lat_ms, tail), "ms");
    m.set("size_ratio",
          decode ? container_total / jpeg_total : r.container_bytes / r.jpeg_bytes,
          "ratio");
    m.set("setup_s", median(setup_s), "s");
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s: %zu requests, tail percentile p%.1f, %.1f MB in %.2f s, "
                  "%.2f CPU s stolen by other tenants",
                  name.c_str(), r.lat_ms.size(), tail, r.mb, r.wall_s, r.steal_s);
    out.notes.push_back(buf);
    clients.clear();
    server->stop();
    return out;
  }

  // Traced run: an untraced half, then a traced half on a fresh server (so
  // its stats cover exactly the traced requests), then the layer probes.
  LoopResult plain = serve_loop(clients, server->bound_address(), inputs, refs, deck,
                                decode, enc, 0, args.seconds / 2, nullptr);
  clients.clear();
  server->stop();
  server = start_server(enc);
  clients = connect_clients(*server);
  SpanRecorder rec;
  LoopResult tr = serve_loop(clients, server->bound_address(), inputs, refs, deck,
                             decode, enc, deck.size() / 8, args.seconds / 2, &rec);
  out.attempted = plain.attempted + tr.attempted;
  out.failed = plain.failed + tr.failed;
  auto st = server->stats();
  clients.clear();
  server->stop();

  // Layer probes run on every 4th small, every 3rd medium and the
  // smallest large input.
  std::vector<InputFile> probe_files;
  int seen[3] = {0, 0, 0};
  for (const InputFile& f : inputs) {
    if (f.band < 0) continue;
    int n = seen[f.band]++;
    if ((f.band == 0 && n % 4 == 0) || (f.band == 1 && n % 3 == 0) ||
        (f.band == 2 && n == 0)) {
      probe_files.push_back(f);
    }
  }
  codec_probes(probe_files, rec, m);
  side_store_probe(probe_files, args.work_dir + "/tmp/side-store", m);

  double p50 = median(tr.lat_ms);
  double server_p50 = st.request_s.percentile(50) * 1e3;
  m.set("server.ping_rtt_us", median(tr.ping_us), "us");
  m.set("server.request_ms_p50", server_p50, "ms");
  m.set("server.wire_ms_p50", p50 - server_p50, "ms");
  m.set("server.ttfb_ms_p50", st.ttfb_s.percentile(50) * 1e3, "ms");
  m.set("server.in_flight_peak", st.in_flight_peak, "count");
  m.set("server.protocol_errors", static_cast<double>(st.protocol_errors), "count");
  m.set("server.disconnects", static_cast<double>(st.disconnects), "count");
  m.set("lepton.segments_mean", tr.segments / std::max(1.0, tr.codec_ops), "count");
  m.set("cpu.util",
        plain.cpu_s / (plain.wall_s * std::thread::hardware_concurrency()), "ratio");
  m.set("trace_overhead", p50 / median(plain.lat_ms), "ratio");
  m.set("peak_rss_MB", plain.rss_growth_mb, "MB");
  // The serve workloads run without the decode cache and without a store.
  for (const char* k : {"storage.cache_hit_rate", "storage.cache_hit_rate_expected"}) {
    m.set(k, 0, "ratio");
  }
  for (const char* k : {"storage.cache_evictions", "storage.cache_invalidations",
                        "storage.puts_deduplicated"}) {
    m.set(k, 0, "count");
  }
  m.set("storage.bytes_on_disk", 0, "bytes");

  // p50 attribution: the median traced request, its codec call probed
  // again on its own file (1-thread shares scaled to the production-
  // threading time).
  const std::size_t mid = median_index(tr.lat_ms);
  const InputFile& rep = inputs[static_cast<std::size_t>(tr.file_of[mid])];
  double mb = static_cast<double>(rep.bytes.size()) / 1e6;
  MetricSheet rep_sheet;
  CodecRates own = codec_probes({rep}, rec, rep_sheet);
  auto cost = [&](double CodecRates::Band::*f) { return own.ms_per_mb(3, f) * mb; };
  using B = CodecRates::Band;
  std::vector<LayerNode> layers{{"server.wire", median(tr.ping_us) / 1e3, {}}};
  if (decode) {
    double d = cost(&B::decode);
    double h = cost(&B::huffman_encode) / cost(&B::decode_1t);
    layers.push_back({"lepton.decode", d,
                      {{"jpeg.huffman_encode", d * h},
                       {"coding.arith_decode", d * (1 - h)}}});
  } else {
    double e = cost(&B::encode);
    double p = cost(&B::parse) / cost(&B::encode_1t);
    double h = cost(&B::huffman_decode) / cost(&B::encode_1t);
    layers.push_back({"lepton.encode", e,
                      {{"jpeg.parse", e * p},
                       {"jpeg.huffman_decode", e * h},
                       {"coding.arith_encode", e * (1 - p - h)}}});
  }
  double rep_ms = tr.lat_ms[mid];
  auto rows = attribute(rep_ms, layers);
  m.set("trace.p50_ms", rep_ms, "ms");
  m.set("trace.unattributed_ms", rows.back().self_ms, "ms");
  out.notes.push_back(attribution_note(name + " (" + rep.label + ")", rep_ms, layers, rows));
  std::filesystem::create_directories(args.work_dir + "/traces");
  rec.write_jsonl(args.work_dir + "/traces/" + name + "-seed" +
                  std::to_string(args.seed) + ".jsonl");
  return out;
}

}  // namespace perfbench
