#include "obs/serve/obs_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/snapshot.h"
#include "obs/timeseries.h"

namespace liberate::obs::serve {

namespace {

constexpr int kListenBacklog = 16;
constexpr int kPollIntervalMs = 50;  // stop-flag latency of the accept loop
constexpr int kIoTimeoutMs = 2000;   // per-socket send/recv timeout

std::string status_line(int status) {
  switch (status) {
    case 200: return "HTTP/1.0 200 OK";
    case 400: return "HTTP/1.0 400 Bad Request";
    case 404: return "HTTP/1.0 404 Not Found";
    case 405: return "HTTP/1.0 405 Method Not Allowed";
    case 431: return "HTTP/1.0 431 Request Header Fields Too Large";
    default: return "HTTP/1.0 500 Internal Server Error";
  }
}

std::string make_response(int status, const std::string& content_type,
                          const std::string& body) {
  std::string out = status_line(status);
  out += "\r\nContent-Type: " + content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
#ifdef MSG_NOSIGNAL
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
#else
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
#endif
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

ObsServer::ObsServer(ObsServerOptions options) : options_(options) {}

ObsServer::~ObsServer() { stop(); }

bool ObsServer::start() {
  if (running()) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, by design
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    error_ = std::string("bind: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, kListenBacklog) < 0) {
    error_ = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void ObsServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void ObsServer::serve_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    int rc = ::poll(&pfd, 1, kPollIntervalMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0 || (pfd.revents & POLLIN) == 0) continue;
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    timeval tv{};
    tv.tv_sec = kIoTimeoutMs / 1000;
    tv.tv_usec = (kIoTimeoutMs % 1000) * 1000;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    handle_client(client);
    ::close(client);
  }
}

void ObsServer::handle_client(int client_fd) {
  // Read until the end of the request head, the size cap, or timeout. The
  // body (if any) is ignored — every endpoint is a GET.
  std::string req;
  char buf[1024];
  bool have_head = false;
  while (req.size() < options_.max_request_bytes) {
    ssize_t n = ::recv(client_fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    req.append(buf, static_cast<std::size_t>(n));
    // Cap check before the terminator check: a head that exceeds the cap is
    // oversized even when it arrives (terminator and all) in one read.
    if (req.size() > options_.max_request_bytes) break;
    if (req.find("\r\n\r\n") != std::string::npos ||
        req.find("\n\n") != std::string::npos) {
      have_head = true;
      break;
    }
  }
  requests_.fetch_add(1, std::memory_order_relaxed);

  if (!have_head && req.size() >= options_.max_request_bytes) {
    send_all(client_fd,
             make_response(431, "text/plain", "request too large\n"));
    return;
  }
  std::size_t line_end = req.find_first_of("\r\n");
  std::string line =
      line_end == std::string::npos ? req : req.substr(0, line_end);
  // "GET <path> HTTP/1.x" — tolerate a missing version (HTTP/0.9 style).
  std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) {
    send_all(client_fd, make_response(400, "text/plain", "bad request\n"));
    return;
  }
  std::string method = line.substr(0, sp1);
  std::size_t sp2 = line.find(' ', sp1 + 1);
  std::string target = sp2 == std::string::npos
                           ? line.substr(sp1 + 1)
                           : line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    send_all(client_fd,
             make_response(405, "text/plain", "method not allowed\n"));
    return;
  }
  std::string content_type, body;
  int status = render(target, &content_type, &body);
  send_all(client_fd, make_response(status, content_type, body));
}

int ObsServer::render(const std::string& target, std::string* content_type,
                      std::string* body) {
  std::string path = target;
  std::size_t q = path.find('?');
  if (q != std::string::npos) path.resize(q);
  if (path == "/healthz") {
    *content_type = "text/plain";
    *body = "ok\n";
    return 200;
  }
  if (path == "/metrics") {
    *content_type = "text/plain; version=0.0.4";
    *body = to_prometheus_text(MetricsRegistry::instance().snapshot());
    *body += prof::cost_ledger_prometheus(CostLedger::instance().snapshot());
    *body += "# TYPE liberate_profile_nodes gauge\nliberate_profile_nodes " +
             std::to_string(prof::Profiler::instance().node_count()) + "\n";
    return 200;
  }
  if (path == "/profile") {
    *content_type = "text/plain";
    *body = prof::profile_collapsed(prof::Profiler::instance().snapshot(),
                                    prof::CollapsedMetric::kSelfSimUs);
    return 200;
  }
  if (path == "/profile.json") {
    *content_type = "application/json";
    *body = prof::profile_to_json(prof::Profiler::instance().snapshot(),
                                  /*include_wall=*/true);
    return 200;
  }
  if (path == "/timeseries.json") {
    *content_type = "application/json";
    *body = timeseries_to_json(TimeSeriesStore::instance().snapshot());
    return 200;
  }
  *content_type = "text/plain";
  *body = "not found\n";
  return 404;
}

}  // namespace liberate::obs::serve
