// obs_server.h — dependency-free HTTP/1.0 scrape endpoint.
//
// A long fleet soak is only observable from outside the process if there is
// something to scrape. ObsServer binds a loopback TCP port and serves
// point-in-time renders of the obs sinks:
//
//   GET /metrics          Prometheus text (metrics + HDR summaries + the
//                         cost-ledger phase×kind counters)
//   GET /profile          collapsed stacks (self sim-clock us) for
//                         flamegraph.pl
//   GET /profile.json     the full profile tree as JSON
//   GET /timeseries.json  the telemetry hub's series
//   GET /healthz          "ok"
//
// Deliberately minimal and bounded: HTTP/1.0, Connection: close, one
// accept thread handling one connection at a time, requests capped at
// max_request_bytes, socket I/O under SO_RCVTIMEO/SO_SNDTIMEO. It is a
// scrape surface for one Prometheus/curl poller, not a web server.
//
// Level-independent like every obs class (gating stays in obs.h macros and
// the #if around server *startup* in the examples); rendering goes through
// snapshot.h, which merges whatever the instrumented build recorded.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

namespace liberate::obs::serve {

struct ObsServerOptions {
  std::uint16_t port = 0;  // 0 = pick an ephemeral port (see port())
  std::size_t max_request_bytes = 4096;  // request head cap; 431 beyond
};

class ObsServer {
 public:
  explicit ObsServer(ObsServerOptions options = {});
  ~ObsServer();

  ObsServer(const ObsServer&) = delete;
  ObsServer& operator=(const ObsServer&) = delete;

  /// Bind + listen on 127.0.0.1 and start the accept thread. Returns false
  /// (with last_error() set) if the socket setup fails; safe to call once.
  bool start();

  /// Stop accepting, join the thread, close the socket. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (the ephemeral pick when options.port was 0); valid
  /// after a successful start().
  std::uint16_t port() const { return port_; }

  std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

  const std::string& last_error() const { return error_; }

  /// Renders the response body for a request path (query string ignored)
  /// without touching a socket — the single dispatch point, also used
  /// directly by tests and the liberate_profile example. Returns the HTTP
  /// status and fills `content_type`.
  static int render(const std::string& path, std::string* content_type,
                    std::string* body);

 private:
  void serve_loop();
  void handle_client(int client_fd);

  ObsServerOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::string error_;
};

}  // namespace liberate::obs::serve
