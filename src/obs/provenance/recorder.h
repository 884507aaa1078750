// recorder.h — the per-packet provenance flight recorder.
//
// Packets are identified by a content digest of their serialized bytes
// (util/digest FNV lane, 64 bits): identity is derived from the datagram
// itself, so ids are stable across threads, worker counts, and re-runs of
// the same seed — the property the explain-determinism regression test
// pins. Registration is idempotent; a retransmission maps onto the node it
// already has.
//
// Three stores, all bounded:
//   * nodes   — id -> {size, kind}; FIFO eviction past the cap.
//   * edges   — child id -> parent hops ({parent, ts, kind, actor, detail});
//               deduplicated, capped per child. "pkt 7 <- split of pkt 3".
//   * ledgers — per (scope, canonical flow) rings of decision records
//               (rules tried, match offsets, verdicts), each an obs::Ring
//               with exact drop counters.
//
// Every worker records every sampled datagram it builds or inspects, so the
// stores are striped by key, each stripe behind its own mutex: nodes and
// the edges into them by packet id, ledgers by canonical flow key (all
// scopes of a flow share a stripe). Eviction order is still one
// process-wide FIFO per table, kept in a ring of insertion order, so the
// caps (kNodeCapacity nodes, kMaxFlows flows, kLedgerCapacity records per
// ledger) evict what a single FIFO would.
//
// The *scope* disambiguates parallel replay: every isolated round replays
// the same 10.0.0.1 flow tuple, so a thread-local scope id — set by the
// round scheduler to the content-defined round fingerprint — keeps
// concurrent worlds from interleaving one flow's story. Scope 0 is the
// ambient (serial, non-round) scope.
//
// A scope also samples: it records 1 flow in `sample_every` (1, everything,
// unless the scope says otherwise; fleet shard worlds say 64). Every
// recording site asks sampled() with the flow's canonical key, read from
// header bytes, before it digests, locks or allocates anything, so an
// unsampled flow costs one hash. The choice is a pure function of the key
// and the scope: the same at every site of a flow, at any worker count.
//
// Like the rest of obs, everything here is level-independent inline code —
// gating lives only in the LIBERATE_PROV_* macros (obs/obs.h), so TUs
// compiled at different levels never disagree on these types.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/event_log.h"
#include "obs/ring.h"
#include "util/digest.h"
#include "util/rng.h"

namespace liberate::obs::prov {

/// Canonical (direction-free) flow key: endpoints are sorted numerically so
/// client->server and server->client packets land in the same ledger.
struct FlowKey {
  std::uint32_t ip_a = 0;
  std::uint32_t ip_b = 0;
  std::uint16_t port_a = 0;
  std::uint16_t port_b = 0;
  std::uint8_t proto = 0;
  bool valid = false;

  bool operator==(const FlowKey& o) const {
    return ip_a == o.ip_a && ip_b == o.ip_b && port_a == o.port_a &&
           port_b == o.port_b && proto == o.proto && valid == o.valid;
  }
  bool operator<(const FlowKey& o) const {
    auto t = [](const FlowKey& k) {
      return std::tuple(k.valid, k.ip_a, k.port_a, k.ip_b, k.port_b, k.proto);
    };
    return t(*this) < t(o);
  }

  std::string to_string() const {
    if (!valid) return "<no-flow>";
    char buf[96];
    auto ip = [](std::uint32_t v, char* out) {
      std::snprintf(out, 16, "%u.%u.%u.%u", (v >> 24) & 0xff, (v >> 16) & 0xff,
                    (v >> 8) & 0xff, v & 0xff);
    };
    char a[16], b[16];
    ip(ip_a, a);
    ip(ip_b, b);
    const char* p = proto == 6    ? "tcp"
                    : proto == 17 ? "udp"
                    : proto == 1  ? "icmp"
                                  : "?";
    std::snprintf(buf, sizeof(buf), "%s:%u<->%s:%u/%s", a, port_a, b, port_b,
                  p);
    return buf;
  }
};

/// Build a canonical key from one direction's endpoints.
inline FlowKey flow_key(std::uint32_t src_ip, std::uint16_t src_port,
                        std::uint32_t dst_ip, std::uint16_t dst_port,
                        std::uint8_t proto) {
  FlowKey k;
  k.valid = true;
  k.proto = proto;
  if (std::tuple(src_ip, src_port) <= std::tuple(dst_ip, dst_port)) {
    k.ip_a = src_ip;
    k.port_a = src_port;
    k.ip_b = dst_ip;
    k.port_b = dst_port;
  } else {
    k.ip_a = dst_ip;
    k.port_a = dst_port;
    k.ip_b = src_ip;
    k.port_b = src_port;
  }
  return k;
}

/// Minimal raw-IPv4 flow extraction (version/IHL + addresses + transport
/// ports when the header is intact). Deliberately self-contained: obs is
/// below netsim in the layering and must not include its parsers. Returns
/// an invalid key for anything that does not look like a whole IPv4 packet.
inline FlowKey flow_key_of(BytesView datagram) {
  if (datagram.size() < 20) return FlowKey{};
  if ((datagram[0] >> 4) != 4) return FlowKey{};
  std::size_t ihl = static_cast<std::size_t>(datagram[0] & 0x0f) * 4;
  if (ihl < 20 || datagram.size() < ihl) return FlowKey{};
  auto rd32 = [&](std::size_t off) {
    return (static_cast<std::uint32_t>(datagram[off]) << 24) |
           (static_cast<std::uint32_t>(datagram[off + 1]) << 16) |
           (static_cast<std::uint32_t>(datagram[off + 2]) << 8) |
           static_cast<std::uint32_t>(datagram[off + 3]);
  };
  std::uint8_t proto = datagram[9];
  std::uint32_t src = rd32(12), dst = rd32(16);
  std::uint16_t sport = 0, dport = 0;
  // Ports only from the first fragment of TCP/UDP (offset 0, payload >= 4).
  std::uint16_t frag = static_cast<std::uint16_t>((datagram[6] << 8) |
                                                  datagram[7]);
  bool first_fragment = (frag & 0x1fff) == 0;
  if ((proto == 6 || proto == 17) && first_fragment &&
      datagram.size() >= ihl + 4) {
    sport = static_cast<std::uint16_t>((datagram[ihl] << 8) |
                                       datagram[ihl + 1]);
    dport = static_cast<std::uint16_t>((datagram[ihl + 2] << 8) |
                                       datagram[ihl + 3]);
  }
  return flow_key(src, sport, dst, dport, proto);
}

/// Content-derived packet lineage id. Never 0, which stands for "no
/// packet" in ProvRecord::pkt and for an empty eviction-ring slot.
inline std::uint64_t packet_id(BytesView datagram) {
  Digest d;
  d.update(datagram);
  std::uint64_t id = d.finish().lo;
  return id != 0 ? id : 1;
}

inline std::string id_hex(std::uint64_t id) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

struct NodeInfo {
  std::uint64_t id = 0;
  std::uint32_t size = 0;   // serialized datagram length
  std::string kind;         // "tcp" | "udp" | "icmp" | "wire" | ...
};

/// One causal hop: `child` was produced from `parent` by `actor` via `kind`.
struct EdgeInfo {
  std::uint64_t child = 0;
  std::uint64_t parent = 0;
  std::uint64_t ts_us = 0;
  std::string kind;    // "split" | "insert" | "reorder" | "flush" |
                       // "ip-fragment" | "reassembly" | "rewrite"
  std::string actor;   // technique or component name
  std::string detail;  // e.g. "payload[0..8) of parent"
};

/// One decision-path record in a flow's ledger (rule evaluation, skip,
/// verdict, mutation marker). `pkt` links the record to a lineage node when
/// the emitting site had the datagram in hand; 0 means flow-level only.
struct ProvRecord {
  std::uint64_t ts_us = 0;
  std::uint64_t seq = 0;  // arrival order within the ledger
  std::string kind;
  std::uint64_t pkt = 0;
  std::vector<EventField> fields;
};

struct LedgerSnapshot {
  std::uint64_t scope = 0;
  FlowKey flow;
  std::vector<ProvRecord> records;  // oldest -> newest surviving
  std::uint64_t dropped = 0;
  std::uint64_t total = 0;  // exact count including dropped
};

struct ProvSnapshot {
  std::vector<NodeInfo> nodes;       // sorted by id
  std::vector<EdgeInfo> edges;       // sorted by (child, parent, kind)
  std::vector<LedgerSnapshot> ledgers;  // sorted by (scope, flow)
  std::uint64_t nodes_evicted = 0;
  std::uint64_t ledgers_evicted = 0;
  std::uint64_t total_records = 0;
};

class ProvenanceRecorder {
 public:
  static constexpr std::size_t kNodeCapacity = 65536;  // packet nodes
  static constexpr std::size_t kMaxFlows = 1024;       // (scope, flow) ledgers
  static constexpr std::size_t kLedgerCapacity = 512;  // records per ledger

  static ProvenanceRecorder& instance() {
    static ProvenanceRecorder rec;
    return rec;
  }

  /// The active scope for this thread (0 = ambient). Set via ScopedProvScope.
  static std::uint64_t current_scope() { return scope_slot().scope; }

  /// Whether this thread's scope records `flow`: every flow when the scope
  /// samples 1 in 1, else 1 flow in sample_every by a hash of the canonical
  /// key. Callers decide here before any digest, lock or allocation.
  static bool sampled(const FlowKey& flow) {
    const std::uint64_t every = scope_slot().sample_every;
    return every == 1 || splitmix64(flow_hash(flow)) % every == 0;
  }

  /// Idempotently register a packet node. Returns the lineage id.
  std::uint64_t packet(BytesView datagram, std::string_view kind) {
    std::uint64_t id = packet_id(datagram);
    register_node(id, static_cast<std::uint32_t>(datagram.size()), kind);
    return id;
  }

  /// Record parent -> child causality, digesting both datagrams.
  void edge(std::uint64_t ts_us, BytesView parent, BytesView child,
            std::string_view kind, std::string_view actor,
            std::string_view detail = {}) {
    edge_ids(ts_us, packet_id(parent), static_cast<std::uint32_t>(parent.size()),
             packet_id(child), static_cast<std::uint32_t>(child.size()), kind,
             actor, detail);
  }

  /// Same, for call sites that digested the parent before it was moved.
  void edge_ids(std::uint64_t ts_us, std::uint64_t parent,
                std::uint32_t parent_size, std::uint64_t child,
                std::uint32_t child_size, std::string_view kind,
                std::string_view actor, std::string_view detail = {}) {
    if (parent == child) return;  // pass-through, not a hop
    register_node(parent, parent_size, "wire");
    NodeStripe& s = stripe_of(node_stripes_, child);
    std::uint64_t victim = 0;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      victim = register_node_locked(s, child, child_size, "wire");
      auto& hops = s.edges[child];
      bool dup = std::any_of(hops.begin(), hops.end(), [&](const EdgeInfo& e) {
        return e.parent == parent && e.kind == kind && e.actor == actor;
      });
      if (!dup && hops.size() < kMaxEdgesPerChild) {
        hops.push_back(EdgeInfo{child, parent, ts_us, std::string(kind),
                                std::string(actor), std::string(detail)});
      }
    }
    evict_node(victim);
  }

  /// Append a decision record to the (current scope, flow) ledger.
  void note(std::uint64_t ts_us, const FlowKey& flow, std::string_view kind,
            std::initializer_list<EventField> fields, std::uint64_t pkt = 0) {
    ProvRecord r;
    r.ts_us = ts_us;
    r.kind = kind;
    r.pkt = pkt;
    r.fields.assign(fields.begin(), fields.end());
    LedgerKey key{current_scope(), flow};
    LedgerStripe& s = stripe_of(ledger_stripes_, flow_hash(flow));
    std::optional<LedgerKey> victim;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      auto [it, inserted] = s.ledgers.try_emplace(key, kLedgerCapacity);
      if (inserted) victim = claim_ledger_slot(s, key);
      Ring<ProvRecord>& ledger = it->second;
      r.seq = ledger.total();
      ledger.push(std::move(r));
    }
    if (victim) evict_ledger(*victim);
  }

  /// note() for sites holding the serialized datagram of `flow`: links the
  /// record to the packet's lineage node.
  void note_pkt(std::uint64_t ts_us, const FlowKey& flow, BytesView datagram,
                std::string_view kind,
                std::initializer_list<EventField> fields) {
    note(ts_us, flow, kind, fields, packet(datagram, "wire"));
  }

  std::optional<NodeInfo> node(std::uint64_t id) const {
    const NodeStripe& s = stripe_of(node_stripes_, id);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.nodes.find(id);
    if (it == s.nodes.end()) return std::nullopt;
    return it->second;
  }

  /// Causal hops into `child`, deterministic order.
  std::vector<EdgeInfo> parents_of(std::uint64_t child) const {
    std::vector<EdgeInfo> out;
    {
      const NodeStripe& s = stripe_of(node_stripes_, child);
      std::lock_guard<std::mutex> lock(s.mu);
      auto it = s.edges.find(child);
      if (it == s.edges.end()) return {};
      out = it->second;
    }
    std::sort(out.begin(), out.end(), edge_less);
    return out;
  }

  /// Every ledger recorded for `flow`, across all scopes, sorted by scope.
  std::vector<LedgerSnapshot> ledgers_for(const FlowKey& flow) const {
    const LedgerStripe& s = stripe_of(ledger_stripes_, flow_hash(flow));
    std::lock_guard<std::mutex> lock(s.mu);
    std::vector<LedgerSnapshot> out;
    for (const auto& [key, ledger] : s.ledgers) {
      if (!(key.second == flow)) continue;
      out.push_back(snapshot_ledger(key, ledger));
    }
    return out;  // std::map iteration is already (scope, flow)-ordered
  }

  ProvSnapshot snapshot() const {
    ProvSnapshot snap;
    {
      auto locks = lock_all(node_stripes_);
      for (const NodeStripe& s : node_stripes_) {
        for (const auto& [id, n] : s.nodes) snap.nodes.push_back(n);
        for (const auto& [child, hops] : s.edges) {
          snap.edges.insert(snap.edges.end(), hops.begin(), hops.end());
        }
        snap.nodes_evicted += s.evicted;
      }
    }
    {
      auto locks = lock_all(ledger_stripes_);
      for (const LedgerStripe& s : ledger_stripes_) {
        for (const auto& [key, ledger] : s.ledgers) {
          snap.ledgers.push_back(snapshot_ledger(key, ledger));
          snap.total_records += ledger.total();
        }
        snap.ledgers_evicted += s.evicted;
      }
    }
    std::sort(snap.nodes.begin(), snap.nodes.end(),
              [](const NodeInfo& a, const NodeInfo& b) { return a.id < b.id; });
    std::sort(snap.edges.begin(), snap.edges.end(), edge_less);
    std::sort(snap.ledgers.begin(), snap.ledgers.end(),
              [](const LedgerSnapshot& a, const LedgerSnapshot& b) {
                return std::tie(a.scope, a.flow) < std::tie(b.scope, b.flow);
              });
    return snap;
  }

  void reset() {
    {
      auto locks = lock_all(node_stripes_);
      for (NodeStripe& s : node_stripes_) {
        s.nodes.clear();
        s.edges.clear();
        s.evicted = 0;
      }
      for (auto& slot : node_ring_) slot.store(0, std::memory_order_relaxed);
      node_next_.store(0, std::memory_order_relaxed);
    }
    auto locks = lock_all(ledger_stripes_);
    for (LedgerStripe& s : ledger_stripes_) {
      s.ledgers.clear();
      s.evicted = 0;
    }
    ledger_ring_ = std::vector<LedgerSlot>(kMaxFlows);
    ledger_next_.store(0, std::memory_order_relaxed);
  }

 private:
  using LedgerKey = std::pair<std::uint64_t, FlowKey>;

  // Storage is striped by key so that recording threads rarely share a
  // lock: a packet node and the edges into it live in the stripe of the
  // packet id, and every scope's ledger of one flow in the stripe of the
  // canonical flow key. Each stripe's mutex guards its maps and its
  // eviction count; the eviction rings below are replaced only by reset(),
  // with every stripe of their table locked (lock_all, in index order).
  struct alignas(64) NodeStripe {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, NodeInfo> nodes;
    std::unordered_map<std::uint64_t, std::vector<EdgeInfo>> edges;  // by child
    std::uint64_t evicted = 0;
  };
  struct alignas(64) LedgerStripe {
    mutable std::mutex mu;
    std::map<LedgerKey, Ring<ProvRecord>> ledgers;
    std::uint64_t evicted = 0;
  };
  struct LedgerSlot {
    std::mutex mu;
    std::optional<LedgerKey> key;
  };

  static constexpr int kStripeBits = 6;
  static constexpr std::size_t kMaxEdgesPerChild = 16;

  ProvenanceRecorder() = default;

  struct ScopeState {
    std::uint64_t scope = 0;
    std::uint64_t sample_every = 1;
  };
  static ScopeState& scope_slot() {
    thread_local ScopeState t_scope;
    return t_scope;
  }
  friend class ScopedProvScope;

  static bool edge_less(const EdgeInfo& a, const EdgeInfo& b) {
    return std::tuple(a.child, a.parent, a.kind, a.actor) <
           std::tuple(b.child, b.parent, b.kind, b.actor);
  }

  template <typename Stripes>
  static auto stripe_of(Stripes& stripes, std::uint64_t hash)
      -> decltype(stripes[0]) {
    return stripes[(hash * 0x9e3779b97f4a7c15ULL) >> (64 - kStripeBits)];
  }
  static std::uint64_t flow_hash(const FlowKey& k) {
    return ((std::uint64_t{k.ip_a} << 32) | k.ip_b) ^
           (((std::uint64_t{k.port_a} << 32) | (std::uint64_t{k.port_b} << 16) |
             (std::uint64_t{k.proto} << 1) | std::uint64_t{k.valid}) *
            0xff51afd7ed558ccdULL);
  }

  template <typename Stripe, std::size_t N>
  static std::vector<std::unique_lock<std::mutex>> lock_all(
      const std::array<Stripe, N>& stripes) {
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(N);
    for (const Stripe& s : stripes) locks.emplace_back(s.mu);
    return locks;
  }

  void register_node(std::uint64_t id, std::uint32_t size,
                     std::string_view kind) {
    NodeStripe& s = stripe_of(node_stripes_, id);
    std::uint64_t victim = 0;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      victim = register_node_locked(s, id, size, kind);
    }
    evict_node(victim);
  }

  // Inserts `id` into its stripe `s` (held) and claims the next node-ring
  // slot for it. Returns the id that slot held, the FIFO victim, for the
  // caller to evict once it has released `s`; a victim in `s` itself is
  // evicted here instead, and 0 returned.
  std::uint64_t register_node_locked(NodeStripe& s, std::uint64_t id,
                                     std::uint32_t size,
                                     std::string_view kind) {
    auto [it, inserted] = s.nodes.try_emplace(id);
    if (!inserted) {
      if (it->second.kind == "wire" && kind != "wire") {
        it->second.kind = kind;  // upgrade a stub to its real origin kind
      }
      return 0;
    }
    it->second.id = id;
    it->second.size = size;
    it->second.kind = kind;
    const std::uint64_t n = node_next_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t victim =
        node_ring_[n % kNodeCapacity].exchange(id, std::memory_order_relaxed);
    if (victim != 0 && &stripe_of(node_stripes_, victim) == &s) {
      erase_node_locked(s, victim);
      return 0;
    }
    return victim;
  }

  void evict_node(std::uint64_t victim) {
    if (victim == 0) return;
    NodeStripe& s = stripe_of(node_stripes_, victim);
    std::lock_guard<std::mutex> lock(s.mu);
    erase_node_locked(s, victim);
  }

  static void erase_node_locked(NodeStripe& s, std::uint64_t id) {
    if (s.nodes.erase(id) == 0) return;
    s.edges.erase(id);
    s.evicted += 1;
  }

  // Ledger-ring counterpart of the node claim in register_node_locked. The
  // keys do not fit one atomic word, so each slot has its own mutex; two
  // claims meet on a slot only kMaxFlows ledger creations apart.
  std::optional<LedgerKey> claim_ledger_slot(LedgerStripe& s,
                                             const LedgerKey& key) {
    std::uint64_t n = ledger_next_.fetch_add(1, std::memory_order_relaxed);
    LedgerSlot& slot = ledger_ring_[n % kMaxFlows];
    std::optional<LedgerKey> victim;
    {
      std::lock_guard<std::mutex> lock(slot.mu);
      victim = std::exchange(slot.key, key);
    }
    if (victim &&
        &stripe_of(ledger_stripes_, flow_hash(victim->second)) == &s) {
      erase_ledger_locked(s, *victim);
      return std::nullopt;
    }
    return victim;
  }

  void evict_ledger(const LedgerKey& victim) {
    LedgerStripe& s = stripe_of(ledger_stripes_, flow_hash(victim.second));
    std::lock_guard<std::mutex> lock(s.mu);
    erase_ledger_locked(s, victim);
  }

  static void erase_ledger_locked(LedgerStripe& s, const LedgerKey& key) {
    if (s.ledgers.erase(key) > 0) s.evicted += 1;
  }

  static LedgerSnapshot snapshot_ledger(const LedgerKey& key,
                                        const Ring<ProvRecord>& ledger) {
    LedgerSnapshot ls;
    ls.scope = key.first;
    ls.flow = key.second;
    ls.records = ledger.to_vector();
    ls.dropped = ledger.dropped();
    ls.total = ledger.total();
    return ls;
  }

  std::array<NodeStripe, std::size_t{1} << kStripeBits> node_stripes_;
  std::array<LedgerStripe, std::size_t{1} << kStripeBits> ledger_stripes_;

  // One FIFO ring of insertion order per table. Inserting a key claims the
  // next slot with a relaxed fetch_add; the key that slot held, inserted
  // capacity-many insertions earlier, is the eviction victim. Every live
  // key sits in exactly one slot, so live keys never exceed the capacity
  // and a serial run evicts exactly the oldest key, as one global FIFO
  // would. Node slots are bare ids (0 = empty) to keep the ring compact.
  std::vector<std::atomic<std::uint64_t>> node_ring_ =
      std::vector<std::atomic<std::uint64_t>>(kNodeCapacity);
  alignas(64) std::atomic<std::uint64_t> node_next_{0};
  std::vector<LedgerSlot> ledger_ring_ = std::vector<LedgerSlot>(kMaxFlows);
  alignas(64) std::atomic<std::uint64_t> ledger_next_{0};
};

/// RAII scope binding for the calling thread; the round scheduler opens one
/// per isolated round with the round's content-defined fingerprint, and a
/// fleet shard one per wave that samples 1 flow in `sample_every` (0 counts
/// as 1).
class ScopedProvScope {
 public:
  explicit ScopedProvScope(std::uint64_t scope, std::uint64_t sample_every = 1)
      : prev_(ProvenanceRecorder::scope_slot()) {
    ProvenanceRecorder::scope_slot() = {
        scope, std::max<std::uint64_t>(sample_every, 1)};
  }
  ~ScopedProvScope() { ProvenanceRecorder::scope_slot() = prev_; }

  ScopedProvScope(const ScopedProvScope&) = delete;
  ScopedProvScope& operator=(const ScopedProvScope&) = delete;

 private:
  ProvenanceRecorder::ScopeState prev_;
};

}  // namespace liberate::obs::prov
