// flow_table.h — open-addressing LRU hash table for per-flow state.
//
// The evasion shim used to keep flow state in a std::map plus a std::list
// for LRU order plus a second map from key to list iterator: three node
// allocations and three pointer chases per packet. Fine at a thousand
// flows, dominant at a million. This table replaces all three structures:
//
//   * open addressing with linear probing over a power-of-two slot array —
//     a probe is a contiguous scan of the key column, no nodes, no chasing;
//   * tombstone-free deletion: erase backward-shifts the displaced tail of
//     the probe run into the hole, so lookups never step over dead slots
//     and the load factor always reflects live entries;
//   * struct-of-arrays layout (util/soa.h): keys, values, occupancy bytes,
//     and LRU links are parallel columns, so probing touches only keys and
//     the LRU sweep touches only links;
//   * intrusive LRU: 32-bit prev/next slot indices, head = most recently
//     touched, tail = eviction victim — no allocation per touch, and the
//     links are re-pointed whenever backward-shift or rehash relocates an
//     entry;
//   * erased slots are ASan-poisoned (the arena.h idiom), so dereferencing
//     a stale pointer after erase/evict/rehash is a hard sanitizer error
//     instead of silent garbage.
//
// Key and Value must be trivially copyable: entries relocate on
// backward-shift and rehash. Pointers returned by find()/touch() are
// invalidated by any subsequent mutating call — the same lifetime contract
// as Arena slices.
//
// Iteration (for_each_lru) walks MRU -> LRU and is a pure function of the
// operation history: no iteration-order dependence on hash seeding or
// allocator addresses, which is what lets snapshot-delta consumers rely on
// it being identical across worker counts and match backends.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "util/rng.h"
#include "util/soa.h"

#if defined(__SANITIZE_ADDRESS__)
#define LIBERATE_FLOW_TABLE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LIBERATE_FLOW_TABLE_ASAN 1
#endif
#endif

#ifdef LIBERATE_FLOW_TABLE_ASAN
extern "C" {
void __asan_poison_memory_region(void const volatile* addr, std::size_t size);
void __asan_unpoison_memory_region(void const volatile* addr,
                                   std::size_t size);
}
#endif

namespace liberate {

template <typename Key, typename Value, typename Hash>
class FlowTable {
  static_assert(std::is_trivially_copyable_v<Key>,
                "entries relocate by memcpy on backward-shift and rehash");
  static_assert(std::is_trivially_copyable_v<Value>,
                "entries relocate by memcpy on backward-shift and rehash");

 public:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  /// True when erased slots are poisoned (build has ASan).
  static constexpr bool kPoisonsErasedSlots =
#ifdef LIBERATE_FLOW_TABLE_ASAN
      true;
#else
      false;
#endif

  explicit FlowTable(std::size_t min_capacity = 16) {
    rehash_to(ceil_pow2(min_capacity < 16 ? 16 : min_capacity));
  }
  ~FlowTable() { unpoison_all(); }

  FlowTable(FlowTable&& o) noexcept { *this = std::move(o); }
  FlowTable& operator=(FlowTable&& o) noexcept {
    unpoison_all();
    slots_.swap(o.slots_);
    mask_ = o.mask_;
    size_ = o.size_;
    head_ = o.head_;
    tail_ = o.tail_;
    max_load_ = o.max_load_;
    o.slots_.clear();
    o.size_ = 0;
    o.head_ = o.tail_ = kNil;
    return *this;
  }
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return mask_ + 1; }
  double load_factor() const {
    return static_cast<double>(size_) / static_cast<double>(capacity());
  }
  /// Growth threshold; clamped to [0.25, 0.95] so probe runs stay bounded.
  void set_max_load_factor(double f) {
    max_load_ = f < 0.25 ? 0.25 : (f > 0.95 ? 0.95 : f);
  }
  void reserve(std::size_t n) {
    const std::size_t want =
        ceil_pow2(static_cast<std::size_t>(static_cast<double>(n) / max_load_) +
                  1);
    if (want > capacity()) rehash_to(want);
  }

  /// Lookup without touching LRU order.
  Value* find(const Key& k) {
    const std::size_t i = find_slot(k);
    return i == kNpos ? nullptr : &slots_.template col<1>()[i];
  }
  const Value* find(const Key& k) const {
    const std::size_t i = find_slot(k);
    return i == kNpos ? nullptr : &slots_.template col<1>()[i];
  }

  /// Insert-or-find, marking the entry most recently used. Returns the
  /// value and whether it was newly inserted (value-initialized).
  std::pair<Value*, bool> touch(const Key& k) {
    std::size_t i = probe(k);
    if (occupied(i)) {
      move_to_front(static_cast<std::uint32_t>(i));
      return {&slots_.template col<1>()[i], false};
    }
    if (size_ + 1 >
        static_cast<std::size_t>(max_load_ * static_cast<double>(capacity()))) {
      rehash_to(capacity() * 2);
      i = probe(k);  // empty slot in the grown table
    }
    insert_at(static_cast<std::uint32_t>(i), k);
    return {&slots_.template col<1>()[i], true};
  }

  bool erase(const Key& k) {
    const std::size_t i = find_slot(k);
    if (i == kNpos) return false;
    erase_slot(static_cast<std::uint32_t>(i));
    return true;
  }

  /// Erase the least-recently-used entry; optionally reports its key.
  bool evict_lru(Key* evicted = nullptr) {
    if (tail_ == kNil) return false;
    const Key victim = slots_.template col<0>()[tail_];  // copy: slot moves
    if (evicted != nullptr) *evicted = victim;
    erase_slot(tail_);
    return true;
  }

  /// Walk entries MRU -> LRU. `fn(const Key&, Value&)`; the callback must
  /// not mutate the table. Order is deterministic given the op history.
  template <typename Fn>
  void for_each_lru(Fn&& fn) {
    for (std::uint32_t i = head_; i != kNil;
         i = slots_.template col<4>()[i]) {
      fn(static_cast<const Key&>(slots_.template col<0>()[i]),
         slots_.template col<1>()[i]);
    }
  }
  template <typename Fn>
  void for_each_lru(Fn&& fn) const {
    for (std::uint32_t i = head_; i != kNil;
         i = slots_.template col<4>()[i]) {
      fn(slots_.template col<0>()[i], slots_.template col<1>()[i]);
    }
  }

  void clear() {
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (slots_.template col<2>()[i]) {
        slots_.template col<2>()[i] = 0;
        poison_slot(i);
      }
    }
    size_ = 0;
    head_ = tail_ = kNil;
  }

  // Test hooks -------------------------------------------------------------
  /// Slot currently holding `k` (kNpos when absent).
  std::size_t slot_of_for_test(const Key& k) const { return find_slot(k); }
  /// Raw address of a slot's key storage — for ASan poison probes only.
  const void* key_address_for_test(std::size_t slot) const {
    return &slots_.template col<0>()[slot];
  }

 private:
  // Columns: 0 = key, 1 = value, 2 = occupied byte, 3 = lru_prev, 4 = lru_next.
  using Slots =
      SoaColumns<Key, Value, std::uint8_t, std::uint32_t, std::uint32_t>;

  static std::size_t ceil_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  /// splitmix64 finalizer on top of the user hash: linear probing needs
  /// well-spread low bits, which e.g. port-derived hashes don't guarantee.
  std::size_t home(const Key& k) const {
    const std::uint64_t h = static_cast<std::uint64_t>(Hash{}(k));
    return static_cast<std::size_t>(splitmix64(h)) & mask_;
  }

  bool occupied(std::size_t i) const {
    return slots_.template col<2>()[i] != 0;
  }

  /// First slot holding `k`, or the empty slot that terminates its run.
  std::size_t probe(const Key& k) const {
    std::size_t i = home(k);
    const auto& keys = slots_.template col<0>();
    while (occupied(i)) {
      if (keys[i] == k) return i;
      i = (i + 1) & mask_;
    }
    return i;
  }

  std::size_t find_slot(const Key& k) const {
    const std::size_t i = probe(k);
    return occupied(i) ? i : kNpos;
  }

  void poison_slot(std::size_t i) {
#ifdef LIBERATE_FLOW_TABLE_ASAN
    __asan_poison_memory_region(&slots_.template col<0>()[i], sizeof(Key));
    __asan_poison_memory_region(&slots_.template col<1>()[i], sizeof(Value));
#else
    (void)i;
#endif
  }
  void unpoison_slot(std::size_t i) {
#ifdef LIBERATE_FLOW_TABLE_ASAN
    __asan_unpoison_memory_region(&slots_.template col<0>()[i], sizeof(Key));
    __asan_unpoison_memory_region(&slots_.template col<1>()[i], sizeof(Value));
#else
    (void)i;
#endif
  }
  void unpoison_all() {
#ifdef LIBERATE_FLOW_TABLE_ASAN
    if (slots_.size() == 0) return;
    __asan_unpoison_memory_region(slots_.template col<0>().data(),
                                  slots_.size() * sizeof(Key));
    __asan_unpoison_memory_region(slots_.template col<1>().data(),
                                  slots_.size() * sizeof(Value));
#endif
  }

  void link_front(std::uint32_t i) {
    slots_.template col<3>()[i] = kNil;
    slots_.template col<4>()[i] = head_;
    if (head_ != kNil) slots_.template col<3>()[head_] = i;
    head_ = i;
    if (tail_ == kNil) tail_ = i;
  }

  void unlink(std::uint32_t i) {
    const std::uint32_t p = slots_.template col<3>()[i];
    const std::uint32_t n = slots_.template col<4>()[i];
    if (p != kNil) slots_.template col<4>()[p] = n; else head_ = n;
    if (n != kNil) slots_.template col<3>()[n] = p; else tail_ = p;
  }

  void move_to_front(std::uint32_t i) {
    if (head_ == i) return;
    unlink(i);
    link_front(i);
  }

  /// Entry relocated from slot `from` to slot `to` (backward-shift/rehash):
  /// re-point its LRU neighbors at the new slot.
  void relink(std::uint32_t from, std::uint32_t to) {
    const std::uint32_t p = slots_.template col<3>()[from];
    const std::uint32_t n = slots_.template col<4>()[from];
    slots_.template col<3>()[to] = p;
    slots_.template col<4>()[to] = n;
    if (p != kNil) slots_.template col<4>()[p] = to; else head_ = to;
    if (n != kNil) slots_.template col<3>()[n] = to; else tail_ = to;
  }

  void insert_at(std::uint32_t i, const Key& k) {
    unpoison_slot(i);
    slots_.template col<0>()[i] = k;
    slots_.template col<1>()[i] = Value{};
    slots_.template col<2>()[i] = 1;
    link_front(i);
    ++size_;
  }

  void erase_slot(std::uint32_t i) {
    unlink(i);
    // Backward-shift: walk the probe run after the hole; any entry whose
    // home lies at or before the hole (cyclically) moves back into it. No
    // tombstone is ever written.
    std::size_t hole = i;
    std::size_t j = i;
    auto& keys = slots_.template col<0>();
    auto& values = slots_.template col<1>();
    while (true) {
      j = (j + 1) & mask_;
      if (!occupied(j)) break;
      const std::size_t h = home(keys[j]);
      // `hole` is reusable by the entry at j iff it is not between j's home
      // and j (i.e. moving j to hole does not skip its own run).
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        unpoison_slot(hole);
        keys[hole] = keys[j];
        values[hole] = values[j];
        slots_.template col<2>()[hole] = 1;
        relink(static_cast<std::uint32_t>(j),
               static_cast<std::uint32_t>(hole));
        slots_.template col<2>()[j] = 0;
        hole = j;
      }
    }
    slots_.template col<2>()[hole] = 0;
    poison_slot(hole);
    --size_;
  }

  void rehash_to(std::size_t new_cap) {
    Slots fresh(new_cap);
    const std::size_t old_cap = slots_.size();
    Slots old;
    old.swap(slots_);
    slots_.swap(fresh);
    mask_ = new_cap - 1;
    const std::uint32_t old_head = head_;
    head_ = tail_ = kNil;
    size_ = 0;
#ifdef LIBERATE_FLOW_TABLE_ASAN
    // Fresh table starts fully poisoned; slots unpoison on insert.
    if (new_cap != 0) {
      __asan_poison_memory_region(slots_.template col<0>().data(),
                                  new_cap * sizeof(Key));
      __asan_poison_memory_region(slots_.template col<1>().data(),
                                  new_cap * sizeof(Value));
    }
#endif
    if (old_cap == 0) return;
    // Reinsert LRU -> MRU so link_front reproduces the exact recency order.
    // First collect the order by walking MRU -> LRU, then replay reversed.
    std::vector<std::uint32_t> order;
    order.reserve(old_cap);
    for (std::uint32_t s = old_head; s != kNil;
         s = old.template col<4>()[s]) {
      order.push_back(s);
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const Key& k = old.template col<0>()[*it];
      std::size_t slot = probe(k);
      insert_at(static_cast<std::uint32_t>(slot), k);
      slots_.template col<1>()[slot] = old.template col<1>()[*it];
    }
#ifdef LIBERATE_FLOW_TABLE_ASAN
    // `old` is about to be destroyed; hand its storage back unpoisoned.
    __asan_unpoison_memory_region(old.template col<0>().data(),
                                  old_cap * sizeof(Key));
    __asan_unpoison_memory_region(old.template col<1>().data(),
                                  old_cap * sizeof(Value));
#endif
  }

  Slots slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  double max_load_ = 0.875;
};

}  // namespace liberate
