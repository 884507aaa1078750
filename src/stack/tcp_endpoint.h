// tcp_endpoint.h — a deliberately small but real TCP implementation.
//
// Implements what the experiments need end-to-end: three-way handshake,
// MSS-sized segmentation, cumulative ACKs, out-of-order reassembly (required
// for the payload splitting/reordering evasions to deliver intact byte
// streams), retransmission with exponential backoff (required under shaping
// queues), RST teardown and a simple FIN close. No congestion control beyond
// a fixed in-flight cap — paths in this simulator are short and loss comes
// from policy, not congestion.
//
// Stateful validation (sequence-out-of-window) happens here; stateless packet
// validation happened earlier in Host::receive via the OS profile.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "netsim/event_loop.h"
#include "netsim/packet.h"

namespace liberate::stack {

class Host;

class TcpConnection {
 public:
  enum class State {
    kClosed,
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinWait,    // we sent FIN, waiting for ACK/FIN
    kCloseWait,  // peer sent FIN, we haven't closed yet
    kLastAck,    // peer closed first, we sent our FIN
  };

  using DataCallback = std::function<void(BytesView)>;
  using EventCallback = std::function<void()>;

  /// Application interface -------------------------------------------------
  void send(BytesView data);
  void send(std::string_view data) { send(BytesView(to_bytes(data))); }
  void close();
  /// Abort with RST.
  void abort();

  void on_established(EventCallback cb) { on_established_ = std::move(cb); }
  void on_data(DataCallback cb) { on_data_ = std::move(cb); }
  void on_closed(EventCallback cb) { on_closed_ = std::move(cb); }
  void on_reset(EventCallback cb) { on_reset_ = std::move(cb); }

  State state() const { return state_; }
  const netsim::FiveTuple& tuple() const { return tuple_; }  // local -> remote
  std::uint64_t retransmissions() const { return retransmissions_; }
  bool was_reset() const { return was_reset_; }

  /// Stack-internal --------------------------------------------------------
  TcpConnection(Host& host, netsim::FiveTuple tuple, std::uint32_t iss,
                bool passive);
  void start_connect();                          // active open: send SYN
  void handle_segment(const netsim::PacketView& pkt);  // from Host demux

  static constexpr std::size_t kMss = 1400;
  static constexpr std::size_t kMaxInFlight = 64 * 1024;
  /// Cap on buffered out-of-order payload bytes. Segments beyond it are
  /// dropped (and re-ACKed) instead of growing the queue without bound —
  /// crafted gap-never-closes floods would otherwise pin memory forever.
  static constexpr std::size_t kMaxOutOfOrderBytes = 256 * 1024;

  /// Bytes currently buffered in the out-of-order queue (tests/obs).
  std::size_t out_of_order_bytes() const { return ooo_buffered_; }

 private:
  void transmit_data_segment(std::uint32_t seq, BytesView payload,
                             bool record);
  void send_control(std::uint8_t flags, std::uint32_t seq, std::uint32_t ack);
  void send_ack();
  void pump_send_buffer();
  void arm_retransmit_timer();
  void on_retransmit_timer(std::uint64_t generation);
  void deliver_in_order();
  void enter_established();
  void teardown(bool reset);
  void maybe_send_fin();

  Host& host_;
  netsim::FiveTuple tuple_;
  State state_ = State::kClosed;
  bool passive_ = false;

  // Send side.
  std::uint32_t iss_ = 0;
  std::uint32_t snd_una_ = 0;  // oldest unacked
  std::uint32_t snd_nxt_ = 0;
  std::deque<std::uint8_t> send_buffer_;  // app bytes not yet segmentized
  struct Unacked {
    std::uint32_t seq;
    Bytes payload;
  };
  std::deque<Unacked> unacked_;
  bool fin_pending_ = false;   // app called close(), FIN not yet sent
  bool fin_sent_ = false;
  std::uint32_t fin_seq_ = 0;

  // Receive side.
  std::uint32_t irs_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  // Orders sequence numbers by their unsigned offset from the initial
  // receive sequence number, so segments just past a 2^32 wrap sort *after*
  // pre-wrap segments (raw integer order would put them first and make the
  // drain loop's winner depend on where the ISN happened to fall). irs_ is
  // fixed for the life of the connection, so the ordering is stable while
  // the map holds elements.
  struct SeqOrder {
    const std::uint32_t* base;
    bool operator()(std::uint32_t a, std::uint32_t b) const {
      return a - *base < b - *base;
    }
  };
  std::map<std::uint32_t, Bytes, SeqOrder> out_of_order_{
      SeqOrder{&irs_}};  // seq -> payload
  std::size_t ooo_buffered_ = 0;  // payload bytes held in out_of_order_
  static constexpr std::uint32_t kRcvWindow = 65535;
  bool peer_fin_received_ = false;
  std::uint32_t peer_fin_seq_ = 0;

  // Timers.
  netsim::Duration rto_ = netsim::milliseconds(200);
  std::uint64_t timer_generation_ = 0;
  bool timer_armed_ = false;

  // Stats / callbacks.
  std::uint64_t retransmissions_ = 0;
  bool was_reset_ = false;
  EventCallback on_established_;
  DataCallback on_data_;
  EventCallback on_closed_;
  EventCallback on_reset_;
};

/// Sequence-space comparison helpers (wraparound-safe).
inline bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
inline bool seq_le(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}

}  // namespace liberate::stack
