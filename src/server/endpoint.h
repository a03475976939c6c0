// Listener/connector abstraction shared by every transport (§6 deployment).
//
// The paper's fleet serves blockservers over local sockets and operators
// over the network; the framing (protocol.h) is transport-agnostic, so the
// only per-transport code in the system is here: parsing an endpoint
// string, opening a listening socket for it, and connecting to one. The
// connection plane (leptond/event_server.h) and the client call these
// helpers — adding a transport never touches frame or request logic.
//
// Endpoint strings:
//   unix:/run/lepton.sock     AF_UNIX stream socket at that path
//   /run/lepton.sock          ditto (anything without a scheme is a path)
//   tcp:127.0.0.1:2929        TCP over IPv4
//   tcp:[::1]:2929            TCP over IPv6 (host bracketed)
//   tcp:host:0                TCP on an ephemeral port; the *bound* address
//                             (with the real port) comes back from listen
#pragma once

#include <string>

namespace lepton::server {

struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  // kUnix: filesystem path
  std::string host;  // kTcp: numeric address or name
  std::string port;  // kTcp: numeric port or service name
};

// Parses an endpoint string. False (with *err set) on an empty string, an
// empty unix path, or a tcp endpoint missing its host or port.
bool parse_endpoint(const std::string& s, Endpoint* ep, std::string* err);

// Formats back to the canonical string form ("unix:" prefix included).
std::string endpoint_to_string(const Endpoint& ep);

// Opens a listening socket: AF_UNIX (existing socket file unlinked first)
// or TCP (SO_REUSEADDR, IPv4/IPv6 via getaddrinfo, IPV6_V6ONLY so "[::]"
// and "0.0.0.0" stay distinct). Returns the fd, or -1 with *err set.
// *bound (optional) receives the canonical bound address — for "tcp:...:0"
// it carries the kernel-chosen port, which is what tests and multi-daemon
// fleets on one host connect to.
int listen_endpoint(const Endpoint& ep, std::string* err,
                    std::string* bound = nullptr, int backlog = 256);

// Connects a blocking stream socket to the endpoint (TCP_NODELAY set on
// TCP: requests are latency-bound frames, not bulk flows that want Nagle).
// Returns the fd, or -1 with *err set.
int connect_endpoint(const Endpoint& ep, std::string* err);

// Post-accept tuning for a connection fd: TCP_NODELAY when the socket is
// TCP; a no-op on AF_UNIX. Safe to call on any stream fd.
void tune_accepted_socket(int fd);

// Removes the socket file of an AF_UNIX endpoint (no-op for TCP) — the
// listener's teardown counterpart to listen_endpoint.
void unlink_endpoint(const Endpoint& ep);

// Open descriptors of this process (walks /proc/self/fd) — the operator
// metric behind the STATS frame's open_fds row; -1 when unreadable.
int count_open_fds();

}  // namespace lepton::server
