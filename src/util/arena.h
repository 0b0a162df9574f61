// Slab arena for tensor storage: size-classed free lists over 64-byte-
// aligned allocations, so the activations, gradients and optimizer scratch
// that the runtime churns through every step come from reusable slabs
// instead of fresh heap allocations.
//
// Design (after LBANN's allocator/registry split):
//   * Every allocation carries a 64-byte header (magic + capacity) in front
//     of the payload, so the payload itself is 64-byte aligned and a freed
//     slab can be routed back to its size class without a side table.
//   * Small requests round up to a power-of-two float count; large requests
//     round up to a 1 MiB multiple and live in an exact-fit map. Both keep
//     LIFO free lists: the hottest slab (still cache/TLB resident) is
//     reused first.
//   * `end_epoch` marks step boundaries: it publishes `runtime.arena.*`
//     metrics and advances the epoch counter. Slabs are returned to the
//     pool on release (shared_ptr deleter), so a steady-state training step
//     allocates nothing fresh after the first epoch.
//   * Disabling the arena (`set_enabled(false)`) keeps the header/alignment
//     contract but frees slabs eagerly; headers record which policy
//     allocated them, so toggling mid-process is safe.
//
// Thread-safe: free lists are mutex-guarded, statistics are atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace rannc {

class Arena {
 public:
  /// Process-wide arena used by Tensor storage. Never destroyed (slabs may
  /// outlive static destruction order), initialized on first use.
  static Arena& global();

  /// A 64-byte-aligned buffer of at least `numel` floats. The deleter
  /// returns the slab to the pool (or frees it when pooling is off).
  [[nodiscard]] std::shared_ptr<float[]> alloc(std::int64_t numel);

  /// Usable float capacity of a payload returned by `alloc` (read from the
  /// slab header). Used by Tensor's construction-time buffer assertion.
  static std::int64_t capacity_floats(const float* payload);

  /// Step boundary: advances the epoch counter and publishes
  /// `runtime.arena.*` counters/gauges to the obs metrics registry.
  void end_epoch();

  /// Frees every pooled (idle) slab. Live tensors are unaffected.
  void trim();

  /// Pooling toggle; disabled means allocations are plain aligned news and
  /// releases free immediately. Allocation stats accrue either way.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  struct Stats {
    std::int64_t allocs = 0;           ///< alloc() calls
    std::int64_t pool_hits = 0;        ///< served from a free list
    std::int64_t requested_bytes = 0;  ///< sum of requested payload bytes
    std::int64_t fresh_bytes = 0;      ///< bytes obtained from the heap
    std::int64_t live_bytes = 0;       ///< capacity held by live tensors
    std::int64_t pooled_bytes = 0;     ///< capacity idle in free lists
    std::int64_t epochs = 0;           ///< end_epoch() calls
  };
  [[nodiscard]] Stats stats() const;

 private:
  Arena();
  void release(void* base);  // deleter target; routes slab by its header

  static constexpr int kMinClassLog2 = 6;   // 64 floats = 256 B payload
  static constexpr int kMaxClassLog2 = 20;  // 1 Mi floats = 4 MiB payload
  /// Large slabs round up to this granule (floats) for exact-fit pooling.
  static constexpr std::int64_t kLargeGranule = 1 << 18;  // 1 MiB
  /// Idle-slab high-water mark; releases beyond it free instead of pooling.
  static constexpr std::int64_t kMaxPooledBytes = 1LL << 30;

  std::atomic<bool> enabled_{true};
  std::mutex mu_;  // guards the free lists
  std::vector<std::vector<void*>> classes_;        // by log2 float count
  std::map<std::int64_t, std::vector<void*>> large_;  // by exact float count

  std::atomic<std::int64_t> allocs_{0};
  std::atomic<std::int64_t> pool_hits_{0};
  std::atomic<std::int64_t> requested_bytes_{0};
  std::atomic<std::int64_t> fresh_bytes_{0};
  std::atomic<std::int64_t> live_bytes_{0};
  std::atomic<std::int64_t> pooled_bytes_{0};
  std::atomic<std::int64_t> epochs_{0};
  // Last published cumulative values, so metric counters receive deltas.
  std::int64_t pub_allocs_ = 0, pub_hits_ = 0, pub_fresh_ = 0;
};

}  // namespace rannc
