// Metrics registry: named counters, gauges and histograms, snapshotted to
// JSON. The quantitative half of `src/obs` — where the tracing layer
// answers "where did the time go", the registry answers "how much": DP
// cells visited, profile queries, per-link busy fractions, bubble
// fraction, peak memory per stage.
//
// All instruments are thread-safe. References returned by the registry
// stay valid for the registry's lifetime (instruments are never removed;
// `reset` zeroes values in place).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rannc {
namespace obs {

/// Monotonic integer counter.
class Counter {
 public:
  void add(std::int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t get() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Last-write-wins floating-point gauge.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double get() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Histogram over exponential base-2 buckets spanning [2^-30, 2^30)
/// (roughly nanoseconds to gigaseconds / bytes to gigabytes), with an
/// underflow and an overflow bucket, plus exact count/sum/min/max.
class Histogram {
 public:
  static constexpr int kMinExp = -30;
  static constexpr int kMaxExp = 30;
  static constexpr int kNumBuckets = kMaxExp - kMinExp + 2;  // + under/over

  void record(double v);

  struct Snapshot {
    std::int64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    /// (upper bound, cumulative count <= bound); only non-empty buckets,
    /// ascending; the last entry's bound is +inf (serialized as "inf").
    std::vector<std::pair<double, std::int64_t>> buckets;

    /// Quantile estimate by linear interpolation inside the exponential
    /// bucket holding rank ceil(q * count), clamped to [min, max]
    /// (Prometheus-style histogram_quantile). 0 when the histogram is
    /// empty; deterministic for a given snapshot.
    [[nodiscard]] double quantile(double q) const;
  };
  [[nodiscard]] Snapshot snapshot() const;
  void reset();

 private:
  mutable std::mutex mu_;
  std::int64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::int64_t bucket_[kNumBuckets] = {};
};

/// Registry of named instruments. Lookup creates on first use; the
/// returned reference is stable. JSON output is sorted by name, so equal
/// metric values serialize identically.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}
  [[nodiscard]] std::string to_json() const;
  bool write_json_file(const std::string& path) const;

  /// Zeroes every instrument in place (references stay valid).
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Process-global registry used by the instrumented library code.
MetricsRegistry& metrics();

}  // namespace obs
}  // namespace rannc
