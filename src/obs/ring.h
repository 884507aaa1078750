// ring.h — the bounded FIFO under every obs store.
//
// A Ring keeps the newest `capacity` records it was given. Its capacity is
// fixed at construction (at least 1); once full, a push overwrites the
// oldest record. It counts every push, so `dropped() == total() - size()`
// is exact however long the run. EventLog, SpanLog, TimeSeriesStore and the
// provenance ledgers all keep their records in one; a Ring has no lock of
// its own, so each owner guards it with the lock it already holds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace liberate::obs {

template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : capacity_(capacity) {}

  void push(T value) {
    if (slots_.size() < capacity_) {
      slots_.push_back(std::move(value));
    } else {
      slots_[total_ % capacity_] = std::move(value);
    }
    ++total_;
  }

  /// The live records, oldest first.
  std::vector<T> to_vector() const {
    std::vector<T> out;
    out.reserve(slots_.size());
    const std::size_t oldest = dropped() % capacity_;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      out.push_back(slots_[(oldest + i) % slots_.size()]);
    }
    return out;
  }

  std::size_t size() const { return slots_.size(); }
  /// Records ever pushed since construction or the last clear().
  std::uint64_t total() const { return total_; }
  /// Records overwritten by newer ones.
  std::uint64_t dropped() const { return total_ - slots_.size(); }

  void clear() {
    slots_.clear();
    total_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<T> slots_;  // slot total_ % capacity_ is the oldest once full
  std::uint64_t total_ = 0;
};

}  // namespace liberate::obs
