// Bounded MPMC channel used for inter-stage activation/gradient transfer.
// Stands in for the NCCL/MPI point-to-point sends of the original system.
//
// The channel is closable so that a pipeline stage that throws or finishes
// early can unblock its peers: after `close()`, blocked and subsequent
// `recv()` calls drain the remaining items and then return `nullopt`, and
// blocked and subsequent `send()` calls return false instead of waiting
// forever — stage threads can never deadlock on a dead peer.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>

namespace rannc {

/// Outcome of a receive attempt on a channel.
enum class RecvStatus {
  Ok,       ///< an item was delivered
  Timeout,  ///< the wait deadline expired
  Closed,   ///< the channel is closed and drained
};

template <typename T>
class Channel {
 public:
  explicit Channel(std::size_t capacity = 64) : capacity_(capacity) {}

  /// Blocks while the channel is full. Returns true once `item` is
  /// enqueued, or false (dropping `item`) if the channel was closed first.
  bool send(T item) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_space_.wait(lk, [&] { return closed_ || queue_.size() < capacity_; });
    if (closed_) return false;
    queue_.push_back(std::move(item));
    cv_data_.notify_one();
    return true;
  }

  /// Blocks while the channel is empty. Returns the next item, or
  /// `nullopt` once the channel is closed and drained.
  std::optional<T> recv() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_data_.wait(lk, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;
    T item = std::move(queue_.front());
    queue_.pop_front();
    cv_space_.notify_one();
    return item;
  }

  /// Bounded-wait receive: like recv(), but gives up after `timeout` and
  /// reports how the wait ended so callers can distinguish a slow peer
  /// (Timeout) from a dead one (Closed).
  std::optional<T> recv_for(std::chrono::duration<double> timeout,
                            RecvStatus* status) {
    std::unique_lock<std::mutex> lk(mu_);
    const bool ready = cv_data_.wait_for(
        lk, timeout, [&] { return closed_ || !queue_.empty(); });
    if (!ready) {
      if (status) *status = RecvStatus::Timeout;
      return std::nullopt;
    }
    if (queue_.empty()) {
      if (status) *status = RecvStatus::Closed;
      return std::nullopt;
    }
    T item = std::move(queue_.front());
    queue_.pop_front();
    cv_space_.notify_one();
    if (status) *status = RecvStatus::Ok;
    return item;
  }

  /// Marks the channel closed and wakes every blocked sender/receiver.
  /// Idempotent; already-queued items stay receivable.
  void close() {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
    cv_data_.notify_all();
    cv_space_.notify_all();
  }

 private:
  std::size_t capacity_;
  std::mutex mu_;
  std::condition_variable cv_data_;
  std::condition_variable cv_space_;
  std::deque<T> queue_;
  bool closed_ = false;
};

}  // namespace rannc
