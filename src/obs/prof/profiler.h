// profiler.h — span-fed hierarchical profiler.
//
// Every ScopedSpan enter/exit feeds a global profile tree: nodes are
// interned by (parent node, span name), so the tree mirrors the dynamic
// span nesting, and each node accumulates call count, inclusive sim-clock
// microseconds, and inclusive wall-clock nanoseconds into per-worker
// cache-line-sharded cells (same scheme as metrics/HDR shards — relaxed
// adds on the hot path, exact merge on snapshot).
//
// Determinism: node *ids* depend on interning order and are never exported.
// snapshot() re-keys the tree by name and sorts children lexicographically,
// so the exported structure, call counts, and sim-clock totals are
// byte-identical across worker counts and match backends (wall-clock totals
// are real time and are excluded from deterministic comparisons).
//
// Like every obs class, the profiler is level-independent — compile-time
// gating lives only in the obs.h macros, keeping mixed-level TUs ODR-safe.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/shard.h"

namespace liberate::obs::prof {

/// Merged, deterministic view of one profile-tree node. `self_*` is
/// inclusive minus the children's inclusive total, clamped at zero —
/// parallel children of a sim-clock span can legitimately accumulate more
/// virtual time than their parent span observed.
struct ProfileNode {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sim_us = 0;        // inclusive sim-clock time
  std::uint64_t wall_ns = 0;       // inclusive wall-clock time
  std::uint64_t self_sim_us = 0;   // exclusive sim-clock time
  std::uint64_t self_wall_ns = 0;  // exclusive wall-clock time
  std::vector<ProfileNode> children;  // sorted by name
};

struct ProfileSnapshot {
  ProfileNode root;             // synthetic root, name ""
  std::uint64_t node_count = 0;  // real nodes (root excluded)
  std::uint64_t dropped = 0;     // enters dropped at node capacity
};

class Profiler {
 public:
  /// Node id space: 0 is the synthetic root (also "no node"), kInvalidNode
  /// marks a dropped enter whose exit must be a no-op.
  static constexpr std::uint32_t kRootNode = 0;
  static constexpr std::uint32_t kInvalidNode = 0xffffffffu;
  static constexpr std::size_t kMaxNodes = 512;

  struct Token {
    std::uint32_t node = kInvalidNode;  // entered node
    std::uint32_t prev = kRootNode;     // ambient node to restore on exit
  };

  static Profiler& instance() {
    static Profiler p;
    return p;
  }

  /// The calling thread's ambient profile node — the interned position the
  /// next child span attaches under. Propagated across pool submissions by
  /// obs::TaskContextScope (prof/context.h).
  static std::uint32_t& current_node() {
    thread_local std::uint32_t t_node = kRootNode;
    return t_node;
  }

  Token enter(const std::string& name) {
    Token tok;
    tok.prev = current_node();
    tok.node = intern(tok.prev, name);
    if (tok.node != kInvalidNode) current_node() = tok.node;
    return tok;
  }

  void exit(const Token& tok, std::uint64_t sim_us, std::uint64_t wall_ns) {
    if (tok.node == kInvalidNode) return;
    Node* n = nodes_[tok.node].load(std::memory_order_acquire);
    if (n != nullptr) {
      Cell& cell = n->cells[shard_index()];
      cell.count.fetch_add(1, std::memory_order_relaxed);
      cell.sim_us.fetch_add(sim_us, std::memory_order_relaxed);
      cell.wall_ns.fetch_add(wall_ns, std::memory_order_relaxed);
    }
    current_node() = tok.prev;
  }

  /// Exact merge of every shard cell into a deterministic tree.
  ProfileSnapshot snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    struct Merged {
      std::uint32_t parent;
      std::string name;
      std::uint64_t count = 0, sim_us = 0, wall_ns = 0;
      std::vector<std::uint32_t> children;
    };
    std::vector<Merged> merged(count_);
    for (std::uint32_t id = 0; id < count_; ++id) {
      const Node* n = nodes_[id].load(std::memory_order_acquire);
      Merged& m = merged[id];
      m.parent = n->parent;
      m.name = n->name;
      for (const Cell& c : n->cells) {
        m.count += c.count.load(std::memory_order_relaxed);
        m.sim_us += c.sim_us.load(std::memory_order_relaxed);
        m.wall_ns += c.wall_ns.load(std::memory_order_relaxed);
      }
      if (id != kRootNode) merged[n->parent].children.push_back(id);
    }

    ProfileSnapshot snap;
    snap.node_count = count_ > 0 ? count_ - 1 : 0;
    snap.dropped = dropped_.load(std::memory_order_relaxed);
    if (count_ == 0) return snap;

    // Recursive build with children sorted by name (interning guarantees
    // sibling names are unique, so the order is total and deterministic).
    struct Builder {
      const std::vector<Merged>& merged;
      ProfileNode build(std::uint32_t id) const {
        const Merged& m = merged[id];
        ProfileNode out;
        out.name = m.name;
        out.count = m.count;
        out.sim_us = m.sim_us;
        out.wall_ns = m.wall_ns;
        std::vector<std::uint32_t> kids = m.children;
        std::sort(kids.begin(), kids.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                    return merged[a].name < merged[b].name;
                  });
        std::uint64_t child_sim = 0, child_wall = 0;
        out.children.reserve(kids.size());
        for (std::uint32_t kid : kids) {
          out.children.push_back(build(kid));
          child_sim += out.children.back().sim_us;
          child_wall += out.children.back().wall_ns;
        }
        out.self_sim_us = out.sim_us > child_sim ? out.sim_us - child_sim : 0;
        out.self_wall_ns =
            out.wall_ns > child_wall ? out.wall_ns - child_wall : 0;
        return out;
      }
    };
    snap.root = Builder{merged}.build(kRootNode);
    return snap;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::uint32_t id = 1; id < count_; ++id) {
      delete nodes_[id].exchange(nullptr, std::memory_order_acq_rel);
    }
    Node* root = nodes_[kRootNode].load(std::memory_order_acquire);
    for (Cell& c : root->cells) {
      c.count.store(0, std::memory_order_relaxed);
      c.sim_us.store(0, std::memory_order_relaxed);
      c.wall_ns.store(0, std::memory_order_relaxed);
    }
    index_.clear();
    count_ = 1;
    dropped_.store(0, std::memory_order_relaxed);
  }

  std::uint64_t node_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_ > 0 ? count_ - 1 : 0;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sim_us{0};
    std::atomic<std::uint64_t> wall_ns{0};
  };
  struct Node {
    std::uint32_t parent = kRootNode;
    std::string name;
    std::array<Cell, kShards> cells;
  };

  Profiler() {
    nodes_[kRootNode].store(new Node{kRootNode, std::string(), {}},
                            std::memory_order_release);
    count_ = 1;
  }

  std::uint32_t intern(std::uint32_t parent, const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find({parent, name});
    if (it != index_.end()) return it->second;
    if (count_ >= kMaxNodes) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return kInvalidNode;
    }
    std::uint32_t id = count_;
    nodes_[id].store(new Node{parent, name, {}}, std::memory_order_release);
    count_ += 1;
    index_.emplace(std::make_pair(parent, name), id);
    return id;
  }

  mutable std::mutex mutex_;
  // Fixed slot array so the exit hot path can load a node pointer without
  // taking the interning mutex (a growing vector would race its readers).
  std::array<std::atomic<Node*>, kMaxNodes> nodes_{};
  std::map<std::pair<std::uint32_t, std::string>, std::uint32_t> index_;
  std::uint32_t count_ = 0;  // slots in use, including the root
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace liberate::obs::prof
