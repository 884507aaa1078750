// network.h — the simulated end-to-end path.
//
// A Network is an ordered chain of PathElements between a client host and a
// server host. Packets are complete serialized IPv4 datagrams; each element
// may forward (immediately or after a delay), drop, rewrite, or inject new
// packets toward either endpoint. Routers decrement TTL and emit ICMP
// time-exceeded; filter elements model the malformed-packet filtering the
// paper observed in operational networks; the DPI middlebox (src/dpi) is just
// another element.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netsim/event_loop.h"
#include "netsim/packet.h"
#include "netsim/validation.h"
#include "util/arena.h"
#include "util/bytes.h"

namespace liberate::netsim {

enum class Direction { kClientToServer, kServerToClient };

inline Direction opposite(Direction d) {
  return d == Direction::kClientToServer ? Direction::kServerToClient
                                         : Direction::kClientToServer;
}

class Network;

/// Handed to an element while it processes one datagram. Forwarding continues
/// the walk toward the packet's destination; send_back starts a new walk from
/// this element's position toward the packet's source.
class ElementIo {
 public:
  ElementIo(Network& net, std::size_t element_index, Direction dir)
      : net_(net), index_(element_index), dir_(dir) {}

  void forward(Bytes datagram);
  void forward_after(Duration delay, Bytes datagram);
  void send_back(Bytes datagram);
  void send_back_after(Duration delay, Bytes datagram);
  TimePoint now() const;
  EventLoop& loop() const;

 private:
  Network& net_;
  std::size_t index_;
  Direction dir_;
};

class PathElement {
 public:
  virtual ~PathElement() = default;
  /// Process one datagram traveling in `dir`. Must call io.forward(...) to
  /// keep it going (zero or more times — dropping, duplicating and
  /// fragmenting are all legal).
  virtual void process(Bytes datagram, Direction dir, ElementIo& io) = 0;
  virtual std::string name() const = 0;
};

/// A TTL-decrementing router with an address for ICMP generation. Optionally
/// applies a filter policy (malformed-packet filtering observed in real
/// networks) and/or normalizes TCP checksums (seen on the GFC path, Table 3
/// note 4).
class RouterHop : public PathElement {
 public:
  explicit RouterHop(std::uint32_t address) : address_(address) {}

  RouterHop& filter(ValidationPolicy policy) {
    filter_ = policy;
    return *this;
  }
  RouterHop& fix_tcp_checksums() {
    fix_tcp_checksum_ = true;
    return *this;
  }
  /// Some paths drop IP fragments outright (observed from Iran, §6.6).
  RouterHop& drop_fragments() {
    filter_.check(Anomaly::kIpFragment);
    return *this;
  }

  void process(Bytes datagram, Direction dir, ElementIo& io) override;
  std::string name() const override;

 private:
  std::uint32_t address_;
  ValidationPolicy filter_;  // default: forwards anything
  bool fix_tcp_checksum_ = false;
};

/// Statistics tap: counts/records datagrams passing a point on the path.
/// Used by tests and by the replay server's "did the packet reach us?" (RS?)
/// raw-capture check.
///
/// Captured datagrams live in a tap-owned Arena: one pointer bump per packet
/// instead of one heap vector, and clear() recycles the whole capture in
/// O(chunks). Views returned by seen() are invalidated by clear().
class TapElement : public PathElement {
 public:
  explicit TapElement(std::string label) : label_(std::move(label)) {}

  void process(Bytes datagram, Direction dir, ElementIo& io) override;
  std::string name() const override { return "tap:" + label_; }

  struct Seen {
    BytesView datagram;  // arena-backed; valid until clear()
    Direction dir;
    TimePoint at;
  };
  const std::vector<Seen>& seen() const { return seen_; }
  void clear() {
    seen_.clear();
    arena_.reset();
  }
  std::size_t count(Direction dir) const;

 private:
  std::string label_;
  std::vector<Seen> seen_;
  Arena arena_;
};

/// A finite FIFO drained at a fixed rate in virtual time: the shaper under
/// BandwidthElement and under the DPI middlebox's class throttle. An idle
/// queue starts over empty. A datagram that would take the queue past
/// `limit` bytes is refused: forward() returns false and the caller counts
/// the drop. Otherwise the datagram leaves once every byte queued before it
/// and its own bytes have been sent at `bytes_per_second`.
struct ShapingQueue {
  TimePoint busy_until = 0;  // when the last queued byte has left
  std::size_t queued = 0;    // bytes waiting

  bool forward(Bytes datagram, double bytes_per_second, std::size_t limit,
               ElementIo& io);
};

/// Rate limiter with a finite queue per direction (models both access-link
/// capacity and shaping policies). Queue overflow drops.
class BandwidthElement : public PathElement {
 public:
  BandwidthElement(double bytes_per_second, std::size_t queue_bytes)
      : rate_(bytes_per_second), queue_limit_(queue_bytes) {}

  /// Change rate at runtime (time-varying base bandwidth in §6.2).
  void set_rate(double bytes_per_second) { rate_ = bytes_per_second; }
  double rate() const { return rate_; }

  void process(Bytes datagram, Direction dir, ElementIo& io) override;
  std::string name() const override { return "bandwidth"; }

  std::uint64_t dropped() const { return dropped_; }

 private:
  double rate_;
  std::size_t queue_limit_;
  ShapingQueue queues_[2];  // by direction, client->server first
  std::uint64_t dropped_ = 0;
};

/// Receives datagrams at an endpoint. Implemented by stack::Host and by raw
/// test harnesses.
class HostIface {
 public:
  virtual ~HostIface() = default;
  virtual void receive(Bytes datagram) = 0;
};

/// Sends datagrams into the network from one end. Hosts hold one of these.
class NetworkPort {
 public:
  virtual ~NetworkPort() = default;
  virtual void send(Bytes datagram) = 0;
  virtual EventLoop& loop() = 0;
};

class Network {
 public:
  explicit Network(EventLoop& loop) : loop_(loop) {}

  /// Elements are ordered client -> server.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto elem = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *elem;
    elements_.push_back(std::move(elem));
    return ref;
  }

  /// Insert an element at `index` (0 = client side) into an already-built
  /// path — how fault-injection links are slotted in front of existing
  /// environments. Only valid before traffic flows: an in-flight walk holds
  /// element indices.
  template <typename T, typename... Args>
  T& emplace_at(std::size_t index, Args&&... args) {
    auto elem = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *elem;
    index = std::min(index, elements_.size());
    elements_.insert(elements_.begin() + static_cast<std::ptrdiff_t>(index),
                     std::move(elem));
    return ref;
  }

  void attach_client(HostIface* host) { client_ = host; }
  void attach_server(HostIface* host) { server_ = host; }

  /// Per-element one-way propagation latency (applied on every traversal).
  void set_hop_latency(Duration d) { hop_latency_ = d; }

  void send_from_client(Bytes datagram);
  void send_from_server(Bytes datagram);

  /// NetworkPort adapters for hosts.
  NetworkPort& client_port() { return client_port_; }
  NetworkPort& server_port() { return server_port_; }

  EventLoop& loop() { return loop_; }
  std::size_t element_count() const { return elements_.size(); }
  PathElement& element(std::size_t i) { return *elements_[i]; }

 private:
  friend class ElementIo;

  // Deliver to the element at `index` (walking up for C->S, down for S->C);
  // index == elements_.size() means "past the last element toward the
  // destination endpoint" for C->S; index == npos-style underflow is handled
  // by walk() bounds checks for S->C.
  void walk(Bytes datagram, Direction dir, std::size_t index);
  void deliver_to_endpoint(Bytes datagram, Direction dir);

  class Port : public NetworkPort {
   public:
    Port(Network& net, Direction dir) : net_(net), dir_(dir) {}
    void send(Bytes datagram) override {
      if (dir_ == Direction::kClientToServer) {
        net_.send_from_client(std::move(datagram));
      } else {
        net_.send_from_server(std::move(datagram));
      }
    }
    EventLoop& loop() override { return net_.loop_; }

   private:
    Network& net_;
    Direction dir_;
  };

  EventLoop& loop_;
  std::vector<std::unique_ptr<PathElement>> elements_;
  HostIface* client_ = nullptr;
  HostIface* server_ = nullptr;
  Duration hop_latency_ = milliseconds(1);
  Port client_port_{*this, Direction::kClientToServer};
  Port server_port_{*this, Direction::kServerToClient};
};

}  // namespace liberate::netsim
