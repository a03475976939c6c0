// EventServer's request path: the frame switch, deadlines, body wall
// budget, kill-switch, stats and trailer discipline of docs/PROTOCOL.md.
// Runs on a worker thread with the connection's fd in blocking mode.
#include <sys/uio.h>

#include <algorithm>
#include <cstdio>

#include "lepton/session.h"
#include "leptond/event_server.h"
#include "server/sockio.h"
#include "util/md5.h"

namespace lepton::leptond {
namespace {

using server::FrameHeader;
using server::FrameType;
using server::kFrameHeaderSize;
using server::ReadStatus;
using server::send_trailer;
using util::ExitCode;

// Streams session output as DATA frames. A send failure marks the sink
// broken and cancels the request's RunControl, so the session aborts at its
// next MCU-row poll instead of converting for a dead peer.
class SocketSink : public ByteSink {
 public:
  SocketSink(int fd, RunControl* rc) : fd_(fd), rc_(rc) {}

  void append(std::span<const std::uint8_t> b) override {
    if (broken_) return;
    std::size_t off = 0;
    while (off < b.size()) {
      auto n = static_cast<std::uint32_t>(
          std::min<std::size_t>(b.size() - off, server::kMaxDataFrame));
      std::uint8_t hdr[kFrameHeaderSize];
      server::write_frame_header(hdr, {FrameType::kData, 0, n});
      iovec iov[2] = {{hdr, kFrameHeaderSize},
                      {const_cast<std::uint8_t*>(b.data() + off), n}};
      // A failpoint "short" outcome delivers a prefix of this DATA frame
      // and then breaks the sink: the client sees a response die mid-frame.
      if (!server::send_all(fd_, iov, 2)) {
        broken_ = true;
        rc_->request_cancel();
        return;
      }
      if (!saw_first_) {
        first_ = std::chrono::steady_clock::now();
        saw_first_ = true;
      }
      bytes_ += n;
      off += n;
    }
  }

  bool broken() const { return broken_; }
  std::uint64_t bytes() const { return bytes_; }
  bool saw_first() const { return saw_first_; }
  std::chrono::steady_clock::time_point first_byte() const { return first_; }

 private:
  int fd_;
  RunControl* rc_;
  bool broken_ = false;
  bool saw_first_ = false;
  std::chrono::steady_clock::time_point first_;
  std::uint64_t bytes_ = 0;
};

// Tees session output: forwards every slice to the socket and keeps a
// bounded copy for decode-cache insertion. Output past the cap stops the
// copy (the cache would reject it anyway) but keeps streaming.
class CaptureSink : public ByteSink {
 public:
  CaptureSink(SocketSink& inner, std::size_t cap) : inner_(inner), cap_(cap) {}

  void append(std::span<const std::uint8_t> b) override {
    inner_.append(b);
    if (overflow_) return;
    if (copy_.size() + b.size() > cap_) {
      overflow_ = true;
      copy_.clear();
      copy_.shrink_to_fit();
      return;
    }
    copy_.insert(copy_.end(), b.begin(), b.end());
  }

  bool overflow() const { return overflow_; }
  std::vector<std::uint8_t> take() { return std::move(copy_); }

 private:
  SocketSink& inner_;
  std::size_t cap_;
  std::vector<std::uint8_t> copy_;
  bool overflow_ = false;
};

void append_kv(std::string& s, const char* key, std::uint64_t v) {
  s += key;
  s += ' ';
  s += std::to_string(v);
  s += '\n';
}

void append_kv_ms(std::string& s, const char* key, double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s %.3f\n", key, seconds * 1000.0);
  s += buf;
}

}  // namespace

ServerStats EventServer::stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

void EventServer::bump(std::uint64_t ServerStats::*counter) {
  std::lock_guard<std::mutex> lk(stats_mu_);
  ++(stats_.*counter);
}

bool EventServer::refuse(int fd, ExitCode code,
                         std::uint64_t ServerStats::*counter) {
  {
    // Never send while holding stats_mu_: a client whose buffer is full
    // would stall every other connection's stats/trailer path.
    std::lock_guard<std::mutex> lk(stats_mu_);
    if (counter != nullptr) ++(stats_.*counter);
    stats_.trailer_codes.add(static_cast<unsigned>(code));
  }
  (void)send_trailer(fd, code, store_->shutoff_active(), 0, 0);
  return false;
}

// The worker pool already bounds how many requests run at once; admission
// only refuses during the drain and keeps the in-flight gauges.
bool EventServer::admit() {
  if (stopping_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lk(stats_mu_);
  ++stats_.requests;
  ++stats_.in_flight;
  stats_.in_flight_peak = std::max(stats_.in_flight_peak, stats_.in_flight);
  return true;
}

void EventServer::release() {
  std::lock_guard<std::mutex> lk(stats_mu_);
  --stats_.in_flight;
}

std::string EventServer::stats_text() {
  ServerStats s = stats();
  std::string t;
  t.reserve(512);
  append_kv(t, "stats_version", 1);
  append_kv(t, "connections", s.connections);
  append_kv(t, "requests", s.requests);
  append_kv(t, "bytes_in", s.bytes_in);
  append_kv(t, "bytes_out", s.bytes_out);
  append_kv(t, "protocol_errors", s.protocol_errors);
  append_kv(t, "oversized_rejects", s.oversized_rejects);
  append_kv(t, "disconnects", s.disconnects);
  append_kv(t, "shutoff_refusals", s.shutoff_refusals);
  append_kv(t, "accept_retries", s.accept_retries);
  append_kv(t, "in_flight", static_cast<std::uint64_t>(s.in_flight));
  append_kv(t, "in_flight_peak",
            static_cast<std::uint64_t>(s.in_flight_peak));
  append_kv(t, "shutoff_engaged", store_->shutoff_active() ? 1 : 0);
  append_kv_ms(t, "ttfb_p50_ms", s.ttfb_s.percentile(50));
  append_kv_ms(t, "ttfb_p99_ms", s.ttfb_s.percentile(99));
  append_kv_ms(t, "request_p50_ms", s.request_s.percentile(50));
  append_kv_ms(t, "request_p99_ms", s.request_s.percentile(99));
  for (unsigned code = 0; code < s.trailer_codes.ceiling(); ++code) {
    std::uint64_t n = s.trailer_codes.count(code);
    if (n == 0) continue;
    t += "trailer_code_";
    t += std::to_string(code);
    t += ' ';
    t += std::string(util::exit_code_name(static_cast<ExitCode>(code)));
    t += ' ';
    t += std::to_string(n);
    t += '\n';
  }
  // Additive keys (PROTOCOL.md §"STATS"): per-site failpoint counters,
  // present only while a chaos schedule is armed.
  if (util::failpoint::armed()) {
    append_kv(t, "failpoints_armed",
              static_cast<std::uint64_t>(util::failpoint::report().size()));
    t += util::failpoint::stats_text();
  }
  // Additive keys: decoded-output cache counters, present only when the
  // cache is configured (--decode-cache-mb / decode_cache_bytes).
  if (decode_cache_ != nullptr) t += decode_cache_->stats_text();
  t += "plane event\n";
  append_kv(t, "workers", static_cast<std::uint64_t>(cfg_.workers));
  append_kv(t, "open_connections", open_connections());
  append_kv(t, "open_fds",
            static_cast<std::uint64_t>(server::count_open_fds()));
  return t;
}

bool EventServer::serve_stats(int fd) {
  std::string text = stats_text();
  std::uint8_t hdr[kFrameHeaderSize];
  server::write_frame_header(
      hdr, {FrameType::kData, 0, static_cast<std::uint32_t>(text.size())});
  iovec iov[2] = {{hdr, kFrameHeaderSize}, {text.data(), text.size()}};
  // Like PING, a STATS round trip is not a conversion: it is not counted
  // in in_flight and its trailer is not tallied into trailer_codes.
  return server::send_all(fd, iov, 2) &&
         send_trailer(fd, ExitCode::kSuccess, store_->shutoff_active(), 0,
                      text.size());
}

bool EventServer::serve_frame(Conn& c) {
  FrameHeader fh;
  if (!server::parse_frame_header(c.open_buf, &fh)) {
    // Oversized declared length or a frame no version-1 client sends.
    // Rejected before any allocation; answer and hang up.
    bool oversized = static_cast<FrameType>(c.open_buf[0]) == FrameType::kData;
    return refuse(c.fd, ExitCode::kImpossible,
                  oversized ? &ServerStats::oversized_rejects
                            : &ServerStats::protocol_errors);
  }

  // The loop buffered the control payload with the header
  // (parse_frame_header bounds it at kMaxControlFrame).
  const std::uint8_t* payload = c.open_buf + kFrameHeaderSize;
  switch (fh.type) {
    case FrameType::kPing:
    case FrameType::kStats: {
      if (fh.length != 0) break;
      if (fh.type == FrameType::kStats) return serve_stats(c.fd);
      return send_trailer(c.fd, ExitCode::kSuccess, store_->shutoff_active(),
                          0, 0);
    }
    case FrameType::kShutoff: {
      if (fh.length != 1) break;
      auto op = static_cast<server::ShutoffOp>(payload[0]);
      if (op == server::ShutoffOp::kEngage) {
        store_->set_shutoff(true);
      } else if (op == server::ShutoffOp::kClear) {
        store_->set_shutoff(false);
      } else if (op != server::ShutoffOp::kQuery) {
        break;
      }
      // Every SHUTOFF answer re-stats the shutoff file (bypassing the
      // 250 ms TTL cache): the operator asked *now*, not a TTL ago.
      bool state = store_->recheck_shutoff();
      return send_trailer(c.fd, ExitCode::kSuccess, state, 0, 0);
    }
    case FrameType::kEncode:
    case FrameType::kDecode:
      return serve_request(c, fh.type == FrameType::kEncode, fh.length);
    default:
      // DATA/END/TRAILER outside a request.
      break;
  }
  // A malformed control frame or a stray stream frame: protocol violation.
  return refuse(c.fd, ExitCode::kImpossible, &ServerStats::protocol_errors);
}

bool EventServer::serve_request(Conn& c, bool is_encode,
                                std::uint32_t open_len) {
  server::OpenPayload open;
  if (!server::parse_open_payload(c.open_buf + kFrameHeaderSize, open_len,
                                  &open) ||
      open.version != server::kProtocolVersion) {
    return refuse(c.fd, ExitCode::kImpossible, &ServerStats::protocol_errors);
  }
  if (!admit()) return refuse(c.fd, ExitCode::kServerShutdown);
  struct Release {
    EventServer* s;
    ~Release() { s->release(); }
  } release_guard{this};

  const auto start = std::chrono::steady_clock::now();
  c.rc.reset();
  const bool has_deadline = open.deadline_ms > 0;
  const auto deadline = start + std::chrono::milliseconds(open.deadline_ms);
  if (has_deadline) c.rc.set_deadline(deadline);

  // Failpoint "service.encode"/"service.decode": `delay` burns wall budget
  // on the worker (a slow conversion, without needing one); any failing
  // action is an internal server failure — error trailer, close, exactly
  // the §6.6 signal that sends the caller to another box.
  if (util::failpoint::armed()) {
    util::failpoint::Outcome o = util::failpoint::hit(
        is_encode ? "service.encode" : "service.decode");
    if (o.action == util::failpoint::Action::kDelay) {
      std::this_thread::sleep_for(o.delay);
    } else if (o.fired()) {
      return refuse(c.fd, ExitCode::kImpossible);
    }
  }

  // §5.7 kill-switch: compression stops, decompression never does.
  if (is_encode && store_->shutoff_active()) {
    return refuse(c.fd, ExitCode::kServerShutdown,
                  &ServerStats::shutoff_refusals);
  }

  SocketSink sink(c.fd, &c.rc);
  EncodeOptions eopts = cfg_.service.encode_opts;
  eopts.run = &c.rc;
  DecodeOptions dopts;
  dopts.run = &c.rc;
  // Cached-decode mode: the body is buffered and md5'd before any decode
  // work, so a hit can skip the session entirely (ServiceConfig rationale).
  const bool use_cache = !is_encode && decode_cache_ != nullptr;
  CaptureSink capture(sink,
                      use_cache ? decode_cache_->max_entry_bytes() : 0);
  std::vector<std::uint8_t> whole_body;
  // Exactly one of the two is used; both are cheap to construct.
  EncodeSession enc(eopts, &ctx_);
  DecodeSession dec(use_cache ? static_cast<ByteSink&>(capture)
                              : static_cast<ByteSink&>(sink),
                    dopts, &ctx_);

  // ---- body: DATA* then END ----
  // The whole body phase runs under an absolute wall budget: the request
  // deadline when one was given, and the idle window either way (a body
  // that cannot arrive within the idle window is indistinguishable from a
  // stalled one — and per-read inactivity alone is gameable by dribbling).
  auto body_deadline = start + cfg_.service.idle_read_timeout;
  if (has_deadline && deadline < body_deadline) body_deadline = deadline;
  std::uint64_t body_bytes = 0;
  ExitCode code = ExitCode::kSuccess;
  bool disconnected = false;
  for (;;) {
    std::uint8_t hdr_buf[kFrameHeaderSize];
    ReadStatus rs = server::read_exact_deadline(
        c.fd, hdr_buf, kFrameHeaderSize, body_deadline);
    if (rs == ReadStatus::kTimedOut) {
      // Deadline passed or the body stalled/dribbled past the idle window.
      code = ExitCode::kTimeout;
      break;
    }
    if (rs != ReadStatus::kOk) {
      disconnected = true;
      break;
    }
    FrameHeader fh;
    if (!server::parse_frame_header(hdr_buf, &fh)) {
      bool oversized = static_cast<FrameType>(hdr_buf[0]) == FrameType::kData;
      // The §6.2 memory-budget refusal: the declaration alone exceeds what
      // this request may allocate, so no buffer is ever sized for it.
      code = oversized ? (is_encode ? ExitCode::kMemLimitEncode
                                    : ExitCode::kMemLimitDecode)
                       : ExitCode::kImpossible;
      bump(oversized ? &ServerStats::oversized_rejects
                     : &ServerStats::protocol_errors);
      break;
    }
    if (fh.type == FrameType::kEnd) {
      if (fh.length != 0) code = ExitCode::kImpossible;
      break;
    }
    if (fh.type != FrameType::kData) {
      code = ExitCode::kImpossible;
      bump(&ServerStats::protocol_errors);
      break;
    }
    if (body_bytes + fh.length > cfg_.service.max_body_bytes) {
      code = is_encode ? ExitCode::kMemLimitEncode : ExitCode::kMemLimitDecode;
      bump(&ServerStats::oversized_rejects);
      break;
    }
    std::vector<std::uint8_t>& buf = c.body[c.body_ix];
    c.body_ix ^= 1;
    buf.resize(fh.length);
    if (fh.length > 0) {
      rs = server::read_exact_deadline(c.fd, buf.data(), fh.length,
                                       body_deadline);
      if (rs == ReadStatus::kTimedOut) {
        code = ExitCode::kTimeout;
        break;
      }
      if (rs != ReadStatus::kOk) {
        disconnected = true;
        break;
      }
    }
    body_bytes += fh.length;
    if (use_cache) {
      // Deferred decode: accumulate (bounded by max_body_bytes, already
      // enforced above) and hash/decode after END.
      whole_body.insert(whole_body.end(), buf.begin(), buf.end());
    } else {
      code = is_encode ? enc.feed({buf.data(), buf.size()})
                       : dec.feed({buf.data(), buf.size()});
      if (code != ExitCode::kSuccess) break;
    }
  }

  if (disconnected) {
    // Mid-request hangup: cancel the session so nothing keeps converting
    // for a dead peer, record it, and close. No trailer — there is no one
    // left to read it.
    c.rc.request_cancel();
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.disconnects;
    stats_.trailer_codes.add(static_cast<unsigned>(ExitCode::kShortRead));
    return false;
  }

  // ---- finish + trailer ----
  if (code == ExitCode::kSuccess && use_cache) {
    std::string md5 =
        util::Md5::hex_digest({whole_body.data(), whole_body.size()});
    if (storage::DecodeCache::Value v = decode_cache_->get(md5)) {
      // Hit: the cached bytes ARE the decode (content-addressed by the
      // container md5 — identical containers decode identically), so the
      // session is never fed.
      sink.append({v->data(), v->size()});
    } else {
      code = dec.feed({whole_body.data(), whole_body.size()});
      if (code == ExitCode::kSuccess) {
        code = dec.finish();
      } else {
        (void)dec.finish();
      }
      if (code == ExitCode::kSuccess && !capture.overflow() &&
          !sink.broken()) {
        decode_cache_->put(
            md5, std::make_shared<const std::vector<std::uint8_t>>(
                     capture.take()));
      }
    }
  } else if (code == ExitCode::kSuccess) {
    code = is_encode ? enc.finish(sink) : dec.finish();
  } else if (!is_encode) {
    // The feed's sticky classification is the trailer code (probe/parse
    // rejections, kTimeout); finish() just finalizes the dead session.
    (void)dec.finish();
  }
  if (sink.broken()) {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.disconnects;
    stats_.trailer_codes.add(static_cast<unsigned>(ExitCode::kShortRead));
    return false;
  }
  if (code == ExitCode::kTimeout &&
      hard_stop_.load(std::memory_order_acquire)) {
    code = ExitCode::kServerShutdown;  // server-initiated, not the budget
  }

  // Counters first, trailer second: a client acting on the trailer (tests
  // included) must never observe stats() that predate its own request.
  auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.bytes_in += body_bytes;
    stats_.bytes_out += sink.bytes();
    stats_.trailer_codes.add(static_cast<unsigned>(code));
    if (sink.saw_first()) {
      stats_.ttfb_s.add(
          std::chrono::duration<double>(sink.first_byte() - start).count());
    }
    stats_.request_s.add(std::chrono::duration<double>(now - start).count());
  }
  bool sent = send_trailer(c.fd, code, store_->shutoff_active(), body_bytes,
                           sink.bytes());
  if (!sent) bump(&ServerStats::disconnects);
  // Keep the connection only after a clean success; every error trailer is
  // followed by a close so a confused client cannot desynchronize framing.
  return sent && code == ExitCode::kSuccess;
}

}  // namespace lepton::leptond
