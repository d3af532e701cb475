// DeadlineHeap: the engine's request queue — a hand-rolled binary min-heap
// (sift-up/sift-down over a flat vector) keyed by (deadline, insertion
// sequence), so the dispatcher always pulls the earliest-deadline request
// next and equal deadlines leave in FIFO order.
//
// The shape follows the bounded priority `schedule` heap of CaDiCaL's
// factor pass: an explicit heap over a flat vector rather than
// std::priority_queue, so a pop can move its value out. Capacity is the
// caller's business (the engine bounds it by queue_capacity); the heap
// itself never rejects. Not thread-safe: the engine guards it with its
// queue mutex.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace factorhd::service {

template <typename T>
class DeadlineHeap {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// Queues `value` under `deadline`; among equal deadlines, earlier pushes
  /// pop first.
  void push(TimePoint deadline, T value) {
    heap_.push_back(Entry{deadline, next_seq_++, std::move(value)});
    sift_up(heap_.size() - 1);
  }

  /// Removes and returns the entry with the smallest (deadline, seq).
  /// Precondition: !empty().
  [[nodiscard]] T pop() {
    T out = std::move(heap_.front().value);
    if (heap_.size() > 1) {
      heap_.front() = std::move(heap_.back());
      heap_.pop_back();
      sift_down(0);
    } else {
      heap_.pop_back();
    }
    return out;
  }

  /// The entry pop() would return next. Precondition: !empty().
  [[nodiscard]] const T& top() const { return heap_.front().value; }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  void reserve(std::size_t n) { heap_.reserve(n); }

 private:
  struct Entry {
    TimePoint deadline;
    std::uint64_t seq;
    T value;
  };
  /// True when the entry at `a` pops before the one at `b`.
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    return a.deadline != b.deadline ? a.deadline < b.deadline : a.seq < b.seq;
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t left = 2 * i + 1;
      const std::size_t right = left + 1;
      std::size_t best = i;
      if (left < n && before(heap_[left], heap_[best])) best = left;
      if (right < n && before(heap_[right], heap_[best])) best = right;
      if (best == i) break;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace factorhd::service
