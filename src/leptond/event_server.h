// leptond's server: the event-driven connection plane and the Lepton
// request path in one class (§5, §6 deployment).
//
// The production fleet holds thousands of long-lived blockserver
// connections per daemon, almost all idle at any instant. A
// thread-per-connection server prices an idle connection at a parked
// thread; this plane prices it at a registered epoll fd:
//
//   * one event-loop thread owns every connection fd (nonblocking) plus
//     the listener; it buffers bytes toward each connection's next
//     request-open frame (8-byte header + <=64-byte control payload);
//   * when — and only when — a complete open frame is buffered, the
//     connection is removed from the loop and dispatched to one of a
//     fixed pool of worker threads, which runs the request path
//     (request_path.cpp: blocking body reads under the wall budget,
//     blocking response writes under the send timeout), then hands the fd
//     back to the loop for the next request;
//   * the worker pool is the one concurrency bound: at most `workers`
//     conversions run at once (§5.5 — two conversions already saturate a
//     16-core box). A connection whose open frame arrives while every
//     worker is busy waits in the job queue unread, so the pressure
//     reaches the client's send buffer.
//
// So a slow-loris client dribbling a *header* holds a 72-byte buffer in
// the loop (reaped by the idle sweep), not a worker; a client dribbling a
// *body* holds a worker bounded by the wall budget; and a
// thousand idle keep-alive connections hold zero threads beyond the fixed
// pool — the connection-scaling property tests/leptond_test.cpp asserts.
// AF_UNIX and TCP listeners run the same request path, so cross-transport
// byte-identity holds by construction.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "lepton/codec.h"
#include "lepton/run_control.h"
#include "lepton/store.h"
#include "server/endpoint.h"
#include "server/protocol.h"
#include "storage/decode_cache.h"
#include "util/exit_codes.h"
#include "util/stats.h"

namespace lepton {
class CodecContext;
}

namespace lepton::leptond {

// Request-path settings.
struct ServiceConfig {
  // Total request-body cap (sum of DATA payloads).
  std::uint64_t max_body_bytes = 6u << 20;

  // Three bounds in one knob: (a) how long a connection may sit idle
  // between requests; (b) the *wall-clock* budget for reading one request
  // body — absolute, not per-read, so a one-byte-per-interval dribble
  // cannot re-arm it forever while holding a worker (a request with a
  // tighter deadline uses that instead); (c) the send timeout on response
  // writes, so a client that stops reading is disconnected rather than
  // wedging its worker.
  std::chrono::milliseconds idle_read_timeout{30000};

  // Kill-switch authority (§5.7); when null the server owns a private
  // TransparentStore so the switch still works per-process.
  TransparentStore* store = nullptr;

  EncodeOptions encode_opts;

  // Decoded-output LRU for the DECODE path (storage/decode_cache.h), byte
  // budget; 0 (default) disables it. When enabled the request body is
  // buffered (already bounded by max_body_bytes) and md5'd before any
  // decode work: a hit streams the cached original and skips the decode
  // entirely; a miss decodes once and caches the output. The trade is
  // explicit — misses lose the streamed-decode TTFB since decoding starts
  // at END, wins come from Zipf-skewed read traffic. Counters surface as
  // decode_cache_* STATS rows (leptonctl stats shows them).
  std::size_t decode_cache_bytes = 0;
};

// A point-in-time copy of the server's counters (taken under the stats
// mutex; cheap enough for tests to poll).
struct ServerStats {
  std::uint64_t connections = 0;         // accepted
  std::uint64_t requests = 0;            // open frames admitted
  std::uint64_t bytes_in = 0;            // request body bytes consumed
  std::uint64_t bytes_out = 0;           // response DATA bytes emitted
  std::uint64_t protocol_errors = 0;     // malformed frames / bad version
  std::uint64_t oversized_rejects = 0;   // declared length over cap
  std::uint64_t disconnects = 0;         // connection died mid-request
  std::uint64_t shutoff_refusals = 0;    // ENCODE refused by kill-switch
  std::uint64_t accept_retries = 0;      // accept() backoffs (EMFILE/ENFILE)
  int in_flight = 0;                     // conversions on workers now
  int in_flight_peak = 0;
  // §6.2 classification of every request/connection outcome: the code of
  // each trailer sent, plus kShortRead for requests whose peer vanished
  // before a trailer could be delivered (those also count in disconnects).
  util::CodeTally trailer_codes;
  // Bounded reservoirs, not exact sample sets: a daemon must not grow
  // per-request stats (or the stats() snapshot copy) without limit.
  util::ReservoirPercentiles ttfb_s;     // request admit -> first DATA out
  util::ReservoirPercentiles request_s;  // request admit -> trailer sent
};

struct EventServerConfig {
  // Endpoint string: "tcp:host:port", "unix:/path", or a bare path
  // (server/endpoint.h). Port 0 binds an ephemeral port; read it back
  // from bound_address().
  std::string listen;

  // Fixed worker pool: the conversion concurrency bound (§5.5).
  int workers = 4;

  ServiceConfig service;
};

class EventServer {
 public:
  explicit EventServer(EventServerConfig cfg, CodecContext* ctx = nullptr);
  ~EventServer();  // stop()s if still running

  EventServer(const EventServer&) = delete;
  EventServer& operator=(const EventServer&) = delete;

  // Binds the listener, spawns the loop thread and the worker pool.
  // False (message in last_error()) on bind/epoll failure.
  bool start();

  // Graceful drain: stop accepting, let dispatched requests run to their
  // trailer (queued ones answer kServerShutdown), close every connection,
  // join everything. Idempotent.
  void stop();

  // Hard stop: trips every dispatched request's RunControl first;
  // cancelled requests trail as kServerShutdown.
  void shutdown_now();

  bool running() const { return running_.load(std::memory_order_acquire); }
  const std::string& bound_address() const { return bound_; }
  const std::string& last_error() const { return error_; }
  int worker_count() const { return cfg_.workers; }

  ServerStats stats() const;
  // The kill-switch authority (cfg.service.store, or the private one).
  TransparentStore* store() { return store_; }

  // Connections currently owned by the plane (idle in the loop or
  // dispatched to a worker). The connection-scaling test reads this to
  // know its 1k idle connections are actually registered.
  std::size_t open_connections() const;

 private:
  // One client connection: loop-side open-frame buffer plus the
  // worker-side request state.
  struct Conn {
    int fd = -1;
    // The open buffer is bounded by the protocol itself: a request-open
    // frame is an 8-byte header plus a <=64-byte control payload, so the
    // loop never buffers request *bodies* — those are read by the worker
    // under the wall budget, through kernel backpressure.
    std::uint8_t open_buf[server::kFrameHeaderSize + server::kMaxControlFrame];
    std::size_t open_len = 0;
    std::size_t open_want = server::kFrameHeaderSize;
    bool header_done = false;
    bool dispatched = false;
    std::chrono::steady_clock::time_point idle_deadline;
    // Lives here (not in the request scope) so shutdown_now can trip an
    // in-flight request's control from another thread while the worker
    // is inside feed()/finish().
    RunControl rc;
    // Alternating body buffers: EncodeSession::feed borrows its first
    // slice until the *next* feed returns (session.h lifetime contract),
    // so the frame just fed must stay intact while the next one is read.
    std::vector<std::uint8_t> body[2];
    int body_ix = 0;
  };

  // ---- event loop (event_server.cpp) ----
  void loop_main();
  void worker_main();
  bool accept_ready();
  void conn_readable(Conn* c);
  void dispatch(Conn* c);
  void rearm_or_close_ready();
  void sweep_idle();
  void close_conn(Conn* c);
  void wake_loop();

  // ---- request path (request_path.cpp) ----
  // Serves the request whose open frame the loop buffered in c.open_buf;
  // true iff the connection may carry another request.
  bool serve_frame(Conn& c);
  bool serve_request(Conn& c, bool is_encode, std::uint32_t open_len);
  bool serve_stats(int fd);
  std::string stats_text();
  // Tallies `code` (and `counter`, when given), answers with a `code`
  // trailer and returns false: the connection closes after it.
  bool refuse(int fd, util::ExitCode code,
              std::uint64_t ServerStats::*counter = nullptr);
  void bump(std::uint64_t ServerStats::*counter);
  bool admit();
  void release();

  EventServerConfig cfg_;
  CodecContext& ctx_;
  std::unique_ptr<TransparentStore> own_store_;
  TransparentStore* store_ = nullptr;
  std::unique_ptr<storage::DecodeCache> decode_cache_;

  server::Endpoint endpoint_;
  std::string bound_;
  std::string error_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: workers -> loop (re-arm queue, stop)
  bool accept_paused_ = false;  // listener deregistered during fd backoff
  std::chrono::steady_clock::time_point accept_resume_at_;
  std::chrono::milliseconds accept_backoff_{10};

  std::atomic<bool> running_{false};
  // Drain under way: admission answers kServerShutdown.
  std::atomic<bool> stopping_{false};
  // shutdown_now() under way: kTimeout trailers become kServerShutdown.
  std::atomic<bool> hard_stop_{false};
  std::atomic<bool> workers_done_{false};  // stop(): pool joined, loop may exit

  mutable std::mutex stats_mu_;
  ServerStats stats_;

  // Connection registry. The loop inserts/erases; shutdown_now reads it
  // to trip in-flight controls, so mutations take the mutex.
  mutable std::mutex conns_mu_;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;

  // Loop -> workers: connections with a complete open frame.
  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::deque<Conn*> jobs_;

  // Workers -> loop: served connections to re-arm (keep) or close.
  std::mutex done_mu_;
  std::vector<std::pair<Conn*, bool>> done_;  // (conn, keep)

  // Declared last: the threads use every member above.
  std::thread loop_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace lepton::leptond
