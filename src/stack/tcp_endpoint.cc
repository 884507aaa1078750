#include "stack/tcp_endpoint.h"

#include <algorithm>

#include "obs/obs.h"
#include "stack/host.h"

namespace liberate::stack {

using netsim::TcpFlags;
using netsim::TcpHeader;

TcpConnection::TcpConnection(Host& host, netsim::FiveTuple tuple,
                             std::uint32_t iss, bool passive)
    : host_(host), tuple_(tuple), passive_(passive), iss_(iss) {
  snd_una_ = iss_;
  snd_nxt_ = iss_;
}

void TcpConnection::start_connect() {
  state_ = State::kSynSent;
  send_control(TcpFlags::kSyn, snd_nxt_, 0);
  snd_nxt_ += 1;  // SYN occupies one sequence number
  unacked_.push_back(Unacked{iss_, {}});  // retransmittable SYN marker
  arm_retransmit_timer();
}

void TcpConnection::send(BytesView data) {
  send_buffer_.insert(send_buffer_.end(), data.begin(), data.end());
  if (state_ == State::kEstablished || state_ == State::kCloseWait) {
    pump_send_buffer();
  }
}

void TcpConnection::close() {
  if (state_ == State::kClosed) return;
  fin_pending_ = true;
  maybe_send_fin();
}

void TcpConnection::abort() {
  if (state_ == State::kClosed) return;
  send_control(TcpFlags::kRst | TcpFlags::kAck, snd_nxt_, rcv_nxt_);
  teardown(/*reset=*/true);
}

void TcpConnection::maybe_send_fin() {
  // FIN goes out only after all buffered data has been segmentized and sent.
  if (!fin_pending_ || fin_sent_ || !send_buffer_.empty()) return;
  if (state_ != State::kEstablished && state_ != State::kCloseWait) return;
  fin_seq_ = snd_nxt_;
  send_control(TcpFlags::kFin | TcpFlags::kAck, snd_nxt_, rcv_nxt_);
  snd_nxt_ += 1;
  fin_sent_ = true;
  unacked_.push_back(Unacked{fin_seq_, {}});
  arm_retransmit_timer();
  state_ = state_ == State::kCloseWait ? State::kLastAck : State::kFinWait;
}

void TcpConnection::transmit_data_segment(std::uint32_t seq, BytesView payload,
                                          bool record) {
  TcpHeader h;
  h.src_port = tuple_.src_port;
  h.dst_port = tuple_.dst_port;
  h.seq = seq;
  h.ack = rcv_nxt_;
  h.flags = TcpFlags::kAck | TcpFlags::kPsh;
  h.window = kRcvWindow;
  netsim::Ipv4Header ip;
  ip.src = tuple_.src_ip;
  ip.dst = tuple_.dst_ip;
  host_.transmit(make_tcp_datagram(ip, h, payload));
  if (record) {
    unacked_.push_back(Unacked{seq, Bytes(payload.begin(), payload.end())});
  }
}

void TcpConnection::send_control(std::uint8_t flags, std::uint32_t seq,
                                 std::uint32_t ack) {
  TcpHeader h;
  h.src_port = tuple_.src_port;
  h.dst_port = tuple_.dst_port;
  h.seq = seq;
  h.ack = ack;
  h.flags = flags;
  h.window = kRcvWindow;
  netsim::Ipv4Header ip;
  ip.src = tuple_.src_ip;
  ip.dst = tuple_.dst_ip;
  host_.transmit(make_tcp_datagram(ip, h, {}));
}

void TcpConnection::send_ack() {
  send_control(TcpFlags::kAck, snd_nxt_, rcv_nxt_);
}

void TcpConnection::pump_send_buffer() {
  while (!send_buffer_.empty()) {
    std::uint32_t in_flight = snd_nxt_ - snd_una_;
    if (in_flight >= kMaxInFlight) break;
    std::size_t room = kMaxInFlight - in_flight;
    std::size_t n = std::min({send_buffer_.size(), kMss, room});
    if (n == 0) break;
    Bytes chunk(send_buffer_.begin(),
                send_buffer_.begin() + static_cast<std::ptrdiff_t>(n));
    send_buffer_.erase(send_buffer_.begin(),
                       send_buffer_.begin() + static_cast<std::ptrdiff_t>(n));
    transmit_data_segment(snd_nxt_, chunk, /*record=*/true);
    snd_nxt_ += static_cast<std::uint32_t>(n);
  }
  if (!unacked_.empty()) arm_retransmit_timer();
  maybe_send_fin();
}

void TcpConnection::arm_retransmit_timer() {
  std::uint64_t gen = ++timer_generation_;
  timer_armed_ = true;
  host_.loop().schedule(rto_, [this, gen]() { on_retransmit_timer(gen); });
}

void TcpConnection::on_retransmit_timer(std::uint64_t generation) {
  if (generation != timer_generation_ || state_ == State::kClosed) return;
  timer_armed_ = false;
  if (unacked_.empty()) return;

  const Unacked& u = unacked_.front();
  ++retransmissions_;
  if (u.payload.empty()) {
    // SYN or FIN retransmission.
    if (u.seq == iss_ && (state_ == State::kSynSent)) {
      send_control(TcpFlags::kSyn, iss_, 0);
    } else if (state_ == State::kSynReceived && u.seq == iss_) {
      send_control(TcpFlags::kSyn | TcpFlags::kAck, iss_, rcv_nxt_);
    } else if (fin_sent_ && u.seq == fin_seq_) {
      send_control(TcpFlags::kFin | TcpFlags::kAck, fin_seq_, rcv_nxt_);
    }
  } else {
    transmit_data_segment(u.seq, u.payload, /*record=*/false);
  }
  rto_ = std::min<netsim::Duration>(rto_ * 2, netsim::seconds(2));
  arm_retransmit_timer();
}

void TcpConnection::enter_established() {
  state_ = State::kEstablished;
  if (on_established_) on_established_();
  pump_send_buffer();
}

void TcpConnection::teardown(bool reset) {
  state_ = State::kClosed;
  was_reset_ = was_reset_ || reset;
  ++timer_generation_;  // cancel timers
  unacked_.clear();
  send_buffer_.clear();
  out_of_order_.clear();
  ooo_buffered_ = 0;
  if (reset) {
    if (on_reset_) on_reset_();
  } else {
    if (on_closed_) on_closed_();
  }
}

void TcpConnection::handle_segment(const netsim::PacketView& pkt) {
  if (!pkt.tcp) return;
  const netsim::TcpView& seg = *pkt.tcp;

  // --- RST processing (any state) ---------------------------------------
  if (seg.rst()) {
    // Accept a RST only if its sequence number is within the receive window
    // (blind-RST protection; also keeps crafted out-of-window RSTs inert at
    // the endpoint even when a middlebox accepted them).
    if (state_ == State::kSynSent || seg.seq == 0 ||
        (seq_le(rcv_nxt_, seg.seq) && seq_lt(seg.seq, rcv_nxt_ + kRcvWindow))) {
      teardown(/*reset=*/true);
    }
    return;
  }

  // Passive open: fresh connection created by the listener sees the SYN here.
  if (state_ == State::kClosed && passive_ && seg.syn() && !seg.ack_flag()) {
    irs_ = seg.seq;
    rcv_nxt_ = seg.seq + 1;
    state_ = State::kSynReceived;
    send_control(TcpFlags::kSyn | TcpFlags::kAck, iss_, rcv_nxt_);
    snd_nxt_ = iss_ + 1;
    unacked_.push_back(Unacked{iss_, {}});
    arm_retransmit_timer();
    return;
  }

  switch (state_) {
    case State::kSynSent: {
      if (seg.syn() && seg.ack_flag() && seg.ack == iss_ + 1) {
        irs_ = seg.seq;
        rcv_nxt_ = seg.seq + 1;
        snd_una_ = seg.ack;
        if (!unacked_.empty() && unacked_.front().payload.empty()) {
          unacked_.pop_front();  // SYN acked
        }
        send_ack();
        enter_established();
      }
      return;
    }
    case State::kSynReceived: {
      if (seg.ack_flag() && seg.ack == iss_ + 1) {
        snd_una_ = seg.ack;
        if (!unacked_.empty() && unacked_.front().payload.empty()) {
          unacked_.pop_front();
        }
        enter_established();
        // Fall through to process any data piggybacked on the ACK.
      } else {
        return;
      }
      break;
    }
    case State::kClosed:
      return;
    default:
      break;
  }

  // --- ACK processing -----------------------------------------------------
  if (seg.ack_flag()) {
    std::uint32_t ack = seg.ack;
    if (seq_lt(snd_una_, ack) && seq_le(ack, snd_nxt_)) {
      snd_una_ = ack;
      while (!unacked_.empty()) {
        const Unacked& u = unacked_.front();
        std::uint32_t seg_end =
            u.seq + static_cast<std::uint32_t>(
                        u.payload.empty() ? 1 : u.payload.size());
        if (seq_le(seg_end, ack)) {
          unacked_.pop_front();
        } else {
          break;
        }
      }
      rto_ = netsim::milliseconds(200);
      if (unacked_.empty()) {
        ++timer_generation_;  // all data acked: cancel timer
        timer_armed_ = false;
      } else {
        arm_retransmit_timer();
      }
      pump_send_buffer();

      // FIN fully acked?
      if (fin_sent_ && seq_le(fin_seq_ + 1, ack)) {
        if (state_ == State::kLastAck) {
          teardown(/*reset=*/false);
          return;
        }
        if (state_ == State::kFinWait && peer_fin_received_) {
          teardown(/*reset=*/false);
          return;
        }
      }
    }
  }

  // --- Data processing ----------------------------------------------------
  BytesView payload = seg.payload;
  std::uint32_t seq = seg.seq;
  if (!payload.empty()) {
    // Trim the portion we already have.
    if (seq_lt(seq, rcv_nxt_)) {
      std::uint32_t overlap = rcv_nxt_ - seq;
      if (overlap >= payload.size()) {
        send_ack();  // full duplicate: re-ACK
        payload = {};
      } else {
        payload = payload.subspan(overlap);
        seq = rcv_nxt_;
      }
    }
  }
  if (!payload.empty()) {
    if (!seq_lt(seq, rcv_nxt_ + kRcvWindow)) {
      // Out of window: stateful anomaly. Drop (and re-ACK, like real stacks).
      send_ack();
    } else if (ooo_buffered_ + payload.size() > kMaxOutOfOrderBytes) {
      // Queue full: drop the segment (the sender will retransmit once the
      // gap closes) instead of buffering unbounded adversarial floods.
      LIBERATE_COUNTER_ADD("stack.tcp_ooo_overflow_drops", 1);
      send_ack();
    } else {
      auto [it, inserted] = out_of_order_.emplace(
          seq, Bytes(payload.begin(), payload.end()));
      (void)it;
      if (inserted) ooo_buffered_ += payload.size();
      deliver_in_order();
      send_ack();
    }
  }

  // --- FIN processing -----------------------------------------------------
  if (seg.fin()) {
    std::uint32_t fin_seq = seg.seq + static_cast<std::uint32_t>(seg.payload.size());
    if (fin_seq == rcv_nxt_ && !peer_fin_received_) {
      peer_fin_received_ = true;
      peer_fin_seq_ = fin_seq;
      rcv_nxt_ = fin_seq + 1;
      send_ack();
      if (state_ == State::kEstablished) {
        state_ = State::kCloseWait;
        maybe_send_fin();  // if app already asked to close
      } else if (state_ == State::kFinWait) {
        // Simultaneous/sequential close; if our FIN was already acked we're
        // done, otherwise wait for that ACK.
        if (unacked_.empty()) teardown(/*reset=*/false);
      }
    }
  }
}

void TcpConnection::deliver_in_order() {
  // The map is ordered by sequence offset from irs_, so begin() is always
  // the stream-wise earliest segment: if it cannot be delivered (and is not
  // stale), nothing later can either.
  while (!out_of_order_.empty()) {
    auto it = out_of_order_.begin();
    std::uint32_t seq = it->first;
    Bytes& data = it->second;
    const std::size_t held = data.size();
    if (seq_le(seq + static_cast<std::uint32_t>(data.size()), rcv_nxt_)) {
      // Entirely stale.
      out_of_order_.erase(it);
      ooo_buffered_ -= held;
      continue;
    }
    if (seq_le(seq, rcv_nxt_) &&
        seq_lt(rcv_nxt_, seq + static_cast<std::uint32_t>(data.size()))) {
      std::uint32_t skip = rcv_nxt_ - seq;
      BytesView fresh = BytesView(data).subspan(skip);
      rcv_nxt_ += static_cast<std::uint32_t>(fresh.size());
      if (on_data_) on_data_(fresh);
      out_of_order_.erase(it);
      ooo_buffered_ -= held;
      continue;
    }
    break;  // gap before the earliest segment
  }
}

}  // namespace liberate::stack
