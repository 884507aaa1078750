// event_loop.h — deterministic discrete-event scheduler.
//
// Single-threaded by design: determinism matters more than parallelism for a
// reproduction harness, and every test/bench drives one loop to completion.
// Ties are broken by insertion order so runs are bit-for-bit reproducible.
//
// Scheduled callbacks are stored in an EventTask: a move-only callable
// wrapper like std::function but with a 96-byte inline buffer, sized so the
// network's per-hop lambdas (a moved-in datagram vector plus a few scalars)
// never touch the heap. A replay round schedules one event per packet per
// hop — with std::function's small-buffer limit those all heap-allocated,
// and the malloc/free pair per hop was visible in round profiles.
//
// What a step costs. The loop orders 24-byte keys {when, seq, slot}, not
// tasks: a task is moved into a slot table once at schedule() and out once
// at step(), whatever the queue depth. A key joins a FIFO run when the run
// is empty or its tail is not later than the key; a key earlier than the
// tail goes to a binary heap. Keys scheduled in time order (constant hop
// delays) cost O(1) in the run; jittered faults and timers that interleave
// with hops pay the heap's O(log n) moves of 24-byte keys.
//
// Why the order is unchanged. seq grows with every schedule(), so a key
// appended to the run (its time not earlier than the tail's) is larger by
// (when, seq) than every key already there: the run stays sorted, and step()
// pops the smaller of the run's head and the heap's top. That is exactly
// the (when, seq) order of one priority queue holding every event, so no
// tie can move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "netsim/simclock.h"

namespace liberate::netsim {

/// Move-only type-erased void() callable with large inline storage.
/// Callables bigger than the buffer fall back to the heap, so this is a
/// drop-in std::function replacement for scheduling purposes.
class EventTask {
 public:
  EventTask() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventTask>>>
  EventTask(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInline &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      ops_ = inline_ops<Fn>();
    } else {
      ptr_ = new Fn(std::forward<F>(fn));
      ops_ = heap_ops<Fn>();
    }
  }

  EventTask(EventTask&& o) noexcept { move_from(o); }
  EventTask& operator=(EventTask&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  EventTask(const EventTask&) = delete;
  EventTask& operator=(const EventTask&) = delete;
  ~EventTask() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->invoke(this); }

 private:
  static constexpr std::size_t kInline = 96;

  struct Ops {
    void (*invoke)(EventTask*);
    void (*move)(EventTask* dst, EventTask* src);  // src left empty
    void (*destroy)(EventTask*);
  };

  template <typename Fn>
  static Fn* inline_fn(EventTask* self) {
    return std::launder(reinterpret_cast<Fn*>(self->buf_));
  }

  template <typename Fn>
  static const Ops* inline_ops() {
    static const Ops ops = {
        [](EventTask* self) { (*inline_fn<Fn>(self))(); },
        [](EventTask* dst, EventTask* src) {
          Fn* f = inline_fn<Fn>(src);
          ::new (static_cast<void*>(dst->buf_)) Fn(std::move(*f));
          f->~Fn();
        },
        [](EventTask* self) { inline_fn<Fn>(self)->~Fn(); },
    };
    return &ops;
  }

  template <typename Fn>
  static const Ops* heap_ops() {
    static const Ops ops = {
        [](EventTask* self) { (*static_cast<Fn*>(self->ptr_))(); },
        [](EventTask* dst, EventTask* src) {
          dst->ptr_ = src->ptr_;
          src->ptr_ = nullptr;
        },
        [](EventTask* self) { delete static_cast<Fn*>(self->ptr_); },
    };
    return &ops;
  }

  void move_from(EventTask& o) {
    ops_ = o.ops_;
    if (ops_ != nullptr) ops_->move(this, &o);
    o.ops_ = nullptr;
  }
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(this);
      ops_ = nullptr;
    }
  }

  union {
    alignas(std::max_align_t) unsigned char buf_[kInline];
    void* ptr_;
  };
  const Ops* ops_ = nullptr;
};

class EventLoop {
 public:
  using Callback = EventTask;

  TimePoint now() const { return now_; }

  /// Schedule `fn` to run `delay` after the current time.
  void schedule(Duration delay, Callback fn) {
    const Key key{now_ + delay, next_seq_++, park(std::move(fn))};
    if (run_.empty() || run_.back().when <= key.when) {
      run_.push_back(key);
    } else {
      heap_.push(key);
    }
  }

  /// Run events until the queue is empty. Advances virtual time.
  void run_until_idle() {
    while (!idle()) step();
  }

  /// Run events with timestamps <= deadline, then set now() to the deadline
  /// (even if idle earlier), so "wait 120 seconds" always advances time.
  void run_until(TimePoint deadline) {
    while (!idle() && next().when <= deadline) step();
    if (now_ < deadline) now_ = deadline;
  }

  void run_for(Duration d) { run_until(now_ + d); }

  bool idle() const { return run_.empty() && heap_.empty(); }
  std::size_t pending() const { return run_.size() + heap_.size(); }

 private:
  struct Key {
    TimePoint when = 0;
    std::uint64_t seq = 0;
    std::size_t slot = 0;  // index into tasks_
    bool operator>(const Key& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };

  /// Whether the smallest pending key heads the run (else the heap).
  bool run_first() const {
    return heap_.empty() || (!run_.empty() && heap_.top() > run_.front());
  }
  const Key& next() const { return run_first() ? run_.front() : heap_.top(); }

  std::size_t park(Callback&& fn) {
    if (free_.empty()) {
      tasks_.push_back(std::move(fn));
      return tasks_.size() - 1;
    }
    const std::size_t slot = free_.back();
    free_.pop_back();
    tasks_[slot] = std::move(fn);
    return slot;
  }

  void step() {
    Key key;
    if (run_first()) {
      key = run_.front();
      run_.pop_front();
    } else {
      key = heap_.top();
      heap_.pop();
    }
    now_ = key.when;
    // The callback may schedule more events, which can grow tasks_: run it
    // from a local, and free its slot first so that schedule can reuse it.
    Callback fn = std::move(tasks_[key.slot]);
    free_.push_back(key.slot);
    fn();
  }

  std::deque<Key> run_;  // sorted by (when, seq): appended in time order
  std::priority_queue<Key, std::vector<Key>, std::greater<>> heap_;
  std::vector<Callback> tasks_;    // slot table; keys point into it
  std::vector<std::size_t> free_;  // empty slots of tasks_
  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace liberate::netsim
