// leptonctl — operator CLI for a running leptond (docs/OPERATIONS.md).
//
//   leptonctl tcp:127.0.0.1:2929 ping
//   leptonctl tcp:127.0.0.1:2929 stats
//   leptonctl unix:/run/lepton.sock encode in.jpg out.lep
//   leptonctl tcp:127.0.0.1:2929 selftest
//
// Every subcommand is one client conversation over the PROTOCOL.md frame
// protocol; `selftest` is the CI smoke probe — it generates a deterministic
// corpus JPEG, round-trips it encode→decode through the daemon, and checks
// the wire results byte-for-byte against the in-process codec.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "lepton/codec.h"
#include "server/client.h"
#include "storage/durable_store.h"
#include "util/exit_codes.h"

namespace {

using lepton::server::LeptonClient;
using lepton::server::RequestResult;

int usage() {
  std::fputs(
      "usage: leptonctl ENDPOINT COMMAND [args]\n"
      "       leptonctl health ENDPOINT [ENDPOINT...]\n"
      "       leptonctl fsck DIR\n"
      "  ENDPOINT               tcp:host:port | unix:/path\n"
      "commands:\n"
      "  ping                   liveness probe (prints shutoff state)\n"
      "  stats                  print the server's STATS text\n"
      "  shutoff-engage         set the server's kill-switch\n"
      "  shutoff-clear          clear the process-local kill-switch\n"
      "  shutoff-query          forced re-check of the kill-switch\n"
      "  encode IN.jpg OUT.lep  compress a JPEG through the server\n"
      "  decode IN.lep OUT.jpg  decompress a container through the server\n"
      "  selftest               encode+decode a generated JPEG over the\n"
      "                         wire; verify byte-identity vs in-process\n"
      "  health (fleet form)    ping + STATS every listed endpoint; print a\n"
      "                         healthy/degraded/dead table; exit 1 if any\n"
      "                         endpoint is dead\n"
      "  fsck DIR (offline)     check a durable-store directory: recovery\n"
      "                         pass + full size/md5 verify; quarantines\n"
      "                         torn/orphaned/corrupt files and superseded\n"
      "                         versions; exit 1 when any acknowledged key\n"
      "                         is lost\n",
      stderr);
  return 2;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream body;
  body << f.rdbuf();
  std::string s = body.str();
  out->assign(s.begin(), s.end());
  return true;
}

bool write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return f.good();
}

// 0 on success; 1 with a diagnostic otherwise.
int check(const RequestResult& r, const char* what) {
  if (r.ok()) return 0;
  std::fprintf(stderr, "leptonctl: %s failed: %s (%s)\n", what,
               std::string(lepton::util::exit_code_name(r.code)).c_str(),
               r.message.empty() ? "no detail" : r.message.c_str());
  return 1;
}

int cmd_transfer(LeptonClient& cli, bool is_encode, const std::string& in,
                 const std::string& out) {
  std::vector<std::uint8_t> body;
  if (!read_file(in, &body)) {
    std::fprintf(stderr, "leptonctl: cannot read %s\n", in.c_str());
    return 1;
  }
  RequestResult r = is_encode ? cli.encode(body) : cli.decode(body);
  if (int rc = check(r, is_encode ? "encode" : "decode"); rc != 0) return rc;
  if (!write_file(out, r.data)) {
    std::fprintf(stderr, "leptonctl: cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(stderr, "leptonctl: %s %zu -> %zu bytes (%.1f ms)\n",
               is_encode ? "encoded" : "decoded", body.size(), r.data.size(),
               r.total_s * 1000.0);
  return 0;
}

int cmd_selftest(const std::string& endpoint) {
  // Deterministic input, sized to exercise real model state but stay fast.
  std::vector<std::uint8_t> jpeg = lepton::corpus::jpeg_of_size(96 << 10, 7);

  // The in-process reference this daemon's answers must match exactly.
  lepton::Result ref = lepton::encode_jpeg(jpeg);
  if (ref.code != lepton::util::ExitCode::kSuccess) {
    std::fprintf(stderr, "leptonctl: selftest reference encode failed\n");
    return 1;
  }

  LeptonClient cli = LeptonClient::connect(endpoint);
  if (!cli.ok()) {
    std::fprintf(stderr, "leptonctl: connect %s: %s\n", endpoint.c_str(),
                 cli.message().c_str());
    return 1;
  }
  RequestResult enc = cli.encode(jpeg);
  if (int rc = check(enc, "selftest encode"); rc != 0) return rc;
  if (enc.data != ref.data) {
    std::fprintf(stderr,
                 "leptonctl: selftest FAILED: wire container differs from "
                 "in-process (%zu vs %zu bytes)\n",
                 enc.data.size(), ref.data.size());
    return 1;
  }
  RequestResult dec = cli.decode(enc.data);
  if (int rc = check(dec, "selftest decode"); rc != 0) return rc;
  if (dec.data != jpeg) {
    std::fprintf(stderr,
                 "leptonctl: selftest FAILED: decoded JPEG differs from "
                 "input (%zu vs %zu bytes)\n",
                 dec.data.size(), jpeg.size());
    return 1;
  }
  std::fprintf(stderr,
               "leptonctl: selftest OK (%zu byte JPEG -> %zu byte "
               "container, byte-identical round trip)\n",
               jpeg.size(), enc.data.size());
  return 0;
}

// Pulls one "key value" row out of STATS text; empty when absent.
std::string stats_value(const std::vector<std::uint8_t>& text,
                        const std::string& key) {
  std::istringstream in(std::string(text.begin(), text.end()));
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > key.size() + 1 && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ' ') {
      return line.substr(key.size() + 1);
    }
  }
  return "";
}

// Fleet health sweep: `leptonctl health EP [EP...]`. Three verdicts —
//   healthy   ping answers, kill-switch clear, STATS served
//   degraded  alive on the wire but impaired (shutoff engaged, or a
//             pre-STATS server that cannot report depth)
//   dead      connect or ping failed at the transport level
// Exit 0 when nothing is dead; 1 otherwise (degraded is a warning, not a
// page — the fleet client still routes around it via the breaker).
int cmd_health(const std::vector<std::string>& endpoints) {
  std::printf("%-28s %-9s %9s %10s  %s\n", "ENDPOINT", "STATE", "PING_MS",
              "IN_FLIGHT", "DETAIL");
  int dead = 0;
  for (const std::string& ep : endpoints) {
    lepton::server::RequestOptions opts;
    opts.transport_timeout = std::chrono::milliseconds(2000);
    LeptonClient cli = LeptonClient::connect(ep);
    RequestResult ping;
    if (cli.ok()) ping = cli.ping(opts);
    if (!cli.ok() || !ping.transport_ok) {
      std::printf("%-28s %-9s %9s %10s  %s\n", ep.c_str(), "dead", "-", "-",
                  (!cli.ok() ? cli.message() : ping.message).c_str());
      ++dead;
      continue;
    }
    RequestResult stats = cli.stats();
    std::string in_flight =
        stats.ok() ? stats_value(stats.data, "in_flight") : "";
    const char* state = "healthy";
    std::string detail = "shutoff clear";
    if (ping.shutoff_engaged) {
      state = "degraded";
      detail = "kill-switch engaged";
    } else if (!stats.ok()) {
      state = "degraded";
      detail = "no STATS (pre-STATS server?)";
    }
    std::printf("%-28s %-9s %9.2f %10s  %s\n", ep.c_str(), state,
                ping.total_s * 1000.0,
                in_flight.empty() ? "-" : in_flight.c_str(), detail.c_str());
  }
  if (dead > 0) {
    std::fprintf(stderr, "leptonctl: %d of %zu endpoints dead\n", dead,
                 endpoints.size());
    return 1;
  }
  return 0;
}

// Offline store check: runs DurableStore's recovery pass (temps, orphans
// and superseded versions swept to quarantine, every referenced object
// size- and md5-verified) and
// reports. Loss — an acknowledged key whose bytes are gone or corrupt —
// is the only nonzero-exit condition; quarantined garbage is routine
// after a crash and exits 0.
int cmd_fsck(const std::string& dir) {
  std::string err;
  lepton::storage::FsckReport rep = lepton::storage::DurableStore::fsck(
      dir, &err);
  if (!err.empty()) {
    std::fprintf(stderr, "leptonctl: fsck %s: %s\n", dir.c_str(), err.c_str());
    return 1;
  }
  std::printf("fsck %s\n", dir.c_str());
  std::printf("  healthy objects   %llu (%llu keys)\n",
              static_cast<unsigned long long>(rep.healthy),
              static_cast<unsigned long long>(rep.keys));
  std::printf("  quarantined       %llu (of which orphaned %llu)\n",
              static_cast<unsigned long long>(rep.quarantined),
              static_cast<unsigned long long>(rep.orphaned));
  std::printf("  superseded        %llu (earlier versions of overwritten "
              "keys, moved aside)\n",
              static_cast<unsigned long long>(rep.superseded));
  std::printf("  lost              %llu\n",
              static_cast<unsigned long long>(rep.lost));
  if (!rep.ok()) {
    std::fprintf(stderr,
                 "leptonctl: fsck FAILED: %llu acknowledged key(s) "
                 "unreadable — data loss\n",
                 static_cast<unsigned long long>(rep.lost));
    return 1;
  }
  std::printf("fsck OK: no acknowledged data lost\n");
  return 0;
}

int cmd_shutoff(LeptonClient& cli, lepton::server::ShutoffOp op,
                const char* what) {
  RequestResult r = cli.shutoff(op);
  if (int rc = check(r, what); rc != 0) return rc;
  std::printf("shutoff %s\n", r.shutoff_engaged ? "engaged" : "clear");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "health") {
    if (argc < 3) return usage();
    return cmd_health(std::vector<std::string>(argv + 2, argv + argc));
  }
  if (argc >= 2 && std::string(argv[1]) == "fsck") {
    if (argc != 3) return usage();
    return cmd_fsck(argv[2]);
  }
  if (argc < 3) return usage();
  std::string endpoint = argv[1];
  std::string cmd = argv[2];

  if (cmd == "selftest") return cmd_selftest(endpoint);

  LeptonClient cli = LeptonClient::connect(endpoint);
  if (!cli.ok()) {
    std::fprintf(stderr, "leptonctl: connect %s: %s\n", endpoint.c_str(),
                 cli.message().c_str());
    return 1;
  }

  if (cmd == "ping") {
    RequestResult r = cli.ping();
    if (int rc = check(r, "ping"); rc != 0) return rc;
    std::printf("pong (%.2f ms, shutoff %s)\n", r.total_s * 1000.0,
                r.shutoff_engaged ? "engaged" : "clear");
    return 0;
  }
  if (cmd == "stats") {
    RequestResult r = cli.stats();
    if (int rc = check(r, "stats"); rc != 0) return rc;
    std::fwrite(r.data.data(), 1, r.data.size(), stdout);
    return 0;
  }
  if (cmd == "shutoff-engage") {
    return cmd_shutoff(cli, lepton::server::ShutoffOp::kEngage, "shutoff");
  }
  if (cmd == "shutoff-clear") {
    return cmd_shutoff(cli, lepton::server::ShutoffOp::kClear, "shutoff");
  }
  if (cmd == "shutoff-query") {
    return cmd_shutoff(cli, lepton::server::ShutoffOp::kQuery, "shutoff");
  }
  if (cmd == "encode" || cmd == "decode") {
    if (argc != 5) return usage();
    return cmd_transfer(cli, cmd == "encode", argv[3], argv[4]);
  }
  return usage();
}
