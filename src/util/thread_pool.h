// Persistent worker pool with a blocking parallel_for, shared by the tensor
// kernels and the partition-search engine. The "devices" of the CPU runtime
// are stage threads; within a stage, heavy kernels (GEMM, conv) fan out
// across the global pool, and the auto-partitioner dispatches its
// independent (S, MB) stage-DP sweeps onto a dedicated pool sized by
// SearchRequest::budget.threads.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace rannc {

/// Upper bound on the threads a pool may be asked for from outside the
/// program (the RANNC_THREADS environment variable, a search budget, a
/// serve flag or wire request): pools start every worker eagerly.
inline constexpr int kMaxThreads = 256;

/// Parses a RANNC_THREADS value: a positive decimal count, capped at
/// kMaxThreads. Null, empty, non-numeric (trailing characters included),
/// zero and negative text give nullopt, meaning unset.
std::optional<int> parse_thread_count(const char* text);

class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool sized to the hardware concurrency.
  static ThreadPool& global();

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs fn(begin, end) over disjoint chunks of [begin, end) on the pool
  /// (the calling thread participates) and blocks until all chunks finish.
  /// Deterministic w.r.t. results as long as chunks write disjoint outputs.
  /// One job runs at a time; concurrent callers serialize.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t, std::int64_t)>& fn);

  /// Runs fn(i) for every i in [0, n), each index as its own work item
  /// pulled dynamically by the workers (the calling thread participates).
  /// Unlike parallel_for there is no chunking and no small-n inline
  /// shortcut: this is meant for a handful of heavyweight, unevenly sized
  /// jobs — e.g. the partition search's per-(S, MB) stage-DP invocations —
  /// where each index must be able to run on its own thread.
  void parallel_each(std::int64_t n,
                     const std::function<void(std::int64_t)>& fn);

 private:
  struct ActiveJob;
  void worker_loop();
  void run_job(std::int64_t begin, std::int64_t end, std::int64_t chunk,
               const std::function<void(std::int64_t, std::int64_t)>& fn);

  std::mutex mu_;                 // guards everything below
  std::mutex caller_mu_;          // serializes concurrent job submissions
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  ActiveJob* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace rannc
