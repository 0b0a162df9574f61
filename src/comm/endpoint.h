// Fabric endpoint: the runtime-facing face of the communication fabric.
//
// Wraps the bounded `Channel` the pipeline stage threads exchange
// activation/gradient maps through, and accrues *simulated* transfer time
// (from a `FabricCostOracle`) and payload bytes for every message, so the
// trainer can report per-stage communication time alongside compute time
// without the host threads' real timing entering the numbers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "comm/oracle.h"
#include "runtime/channel.h"

namespace rannc {
namespace comm {

template <typename T>
class FabricEndpoint {
 public:
  using BytesFn = std::function<std::int64_t(const T&)>;

  /// `oracle` may be null, in which case the endpoint is a plain channel
  /// with no accounting. `same_node` selects the simulated link class.
  FabricEndpoint(std::size_t capacity,
                 std::shared_ptr<const FabricCostOracle> oracle,
                 bool same_node, BytesFn bytes_of)
      : ch_(capacity),
        oracle_(std::move(oracle)),
        same_node_(same_node),
        bytes_of_(std::move(bytes_of)) {}

  bool send(T item) {
    accrue(item, send_seconds_, sent_bytes_);
    return ch_.send(std::move(item));
  }

  std::optional<T> recv() { return recv(nullptr, 0.0); }

  /// Receive reporting how the wait ended (see RecvStatus). `timeout_s > 0`
  /// bounds the real wait on the channel; 0 blocks until data or close.
  std::optional<T> recv(RecvStatus* status, double timeout_s = 0.0) {
    std::optional<T> item;
    if (timeout_s > 0) {
      RecvStatus st = RecvStatus::Closed;
      item = ch_.recv_for(std::chrono::duration<double>(timeout_s), &st);
      if (status) *status = st;
      if (!item) return item;
    } else {
      item = ch_.recv();
      if (status) *status = item ? RecvStatus::Ok : RecvStatus::Closed;
      if (!item) return item;
    }
    accrue(*item, recv_seconds_, recv_bytes_);
    return item;
  }

  void close() { ch_.close(); }

  // Send-side counters are written only by the sending thread and
  // recv-side only by the receiving thread; read them after those threads
  // joined.
  [[nodiscard]] double send_seconds() const { return send_seconds_; }
  [[nodiscard]] double recv_seconds() const { return recv_seconds_; }
  [[nodiscard]] std::int64_t sent_bytes() const { return sent_bytes_; }
  [[nodiscard]] std::int64_t recv_bytes() const { return recv_bytes_; }

 private:
  void accrue(const T& item, double& seconds, std::int64_t& bytes_acc) {
    if (!oracle_ || !bytes_of_) return;
    const std::int64_t b = bytes_of_(item);
    seconds += oracle_->p2p(b, same_node_);
    bytes_acc += b;
  }

  Channel<T> ch_;
  std::shared_ptr<const FabricCostOracle> oracle_;
  bool same_node_ = true;
  BytesFn bytes_of_;
  double send_seconds_ = 0, recv_seconds_ = 0;
  std::int64_t sent_bytes_ = 0, recv_bytes_ = 0;
};

}  // namespace comm
}  // namespace rannc
