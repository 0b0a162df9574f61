#include "obs/metrics.h"

#include <cmath>
#include <fstream>
#include <limits>

#include "util/json.h"

namespace rannc {
namespace obs {

namespace {

/// Bucket index for a value: 0 = underflow (< 2^kMinExp), then one bucket
/// per binary exponent, last = overflow (>= 2^kMaxExp). Non-positive and
/// non-finite values land in the underflow bucket.
int bucket_index(double v) {
  if (!(v > 0) || !std::isfinite(v)) return 0;
  const int e = static_cast<int>(std::floor(std::log2(v)));
  if (e < Histogram::kMinExp) return 0;
  if (e >= Histogram::kMaxExp) return Histogram::kNumBuckets - 1;
  return e - Histogram::kMinExp + 1;
}

}  // namespace

void Histogram::record(double v) {
  std::lock_guard<std::mutex> lk(mu_);
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  ++bucket_[bucket_index(v)];
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  Snapshot s;
  s.count = count_;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  std::int64_t cum = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cum += bucket_[i];
    if (bucket_[i] == 0) continue;
    const double le = i == kNumBuckets - 1
                          ? std::numeric_limits<double>::infinity()
                          : std::ldexp(1.0, kMinExp + i);
    s.buckets.emplace_back(le, cum);
  }
  // Terminal +inf bucket (Prometheus-style), even when overflow is empty.
  if (count_ > 0 &&
      (s.buckets.empty() || std::isfinite(s.buckets.back().first)))
    s.buckets.emplace_back(std::numeric_limits<double>::infinity(), cum);
  return s;
}

double Histogram::Snapshot::quantile(double q) const {
  if (count <= 0 || buckets.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const auto target = static_cast<std::int64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count))));
  std::int64_t prev_cum = 0;
  for (const auto& [upper, cum] : buckets) {
    if (cum < target) {
      prev_cum = cum;
      continue;
    }
    if (!std::isfinite(upper)) return max;  // overflow bucket
    // Exponential buckets: lower bound is half the upper bound (the
    // underflow bucket's lower bound is 0).
    const double lower = upper == std::ldexp(1.0, kMinExp) ? 0.0 : upper / 2;
    const auto in_bucket = static_cast<double>(cum - prev_cum);
    const double frac = static_cast<double>(target - prev_cum) / in_bucket;
    const double v = lower + frac * (upper - lower);
    return std::min(max, std::max(min, v));
  }
  return max;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
  for (std::int64_t& b : bucket_) b = 0;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string MetricsRegistry::to_json() const {
  // Copy the instrument pointers under the lock, then read their values
  // without it (instruments are individually thread-safe).
  std::vector<std::pair<std::string, const Counter*>> cs;
  std::vector<std::pair<std::string, const Gauge*>> gs;
  std::vector<std::pair<std::string, const Histogram*>> hs;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [n, c] : counters_) cs.emplace_back(n, c.get());
    for (const auto& [n, g] : gauges_) gs.emplace_back(n, g.get());
    for (const auto& [n, h] : histograms_) hs.emplace_back(n, h.get());
  }
  json::Writer w;
  w.begin_object().key("counters").begin_object();
  for (const auto& [name, c] : cs) w.field(name, c->get());
  w.end_object().key("gauges").begin_object();
  for (const auto& [name, g] : gs) w.field(name, g->get());
  w.end_object().key("histograms").begin_object();
  for (const auto& [name, h] : hs) {
    const Histogram::Snapshot s = h->snapshot();
    w.key(name).begin_object().field("count", s.count).field("sum", s.sum);
    w.field("min", s.min).field("max", s.max);
    w.field("p50", s.quantile(0.50)).field("p99", s.quantile(0.99));
    w.key("buckets").begin_array();
    for (const auto& [le, count] : s.buckets) {
      w.begin_object().key("le");
      if (std::isfinite(le)) w.value(le);
      else w.value("inf");
      w.field("count", count).end_object();
    }
    w.end_array().end_object();
  }
  w.end_object().end_object();
  return w.str();
}

bool MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << to_json();
  return static_cast<bool>(os);
}

void MetricsRegistry::reset() {
  std::vector<Counter*> cs;
  std::vector<Gauge*> gs;
  std::vector<Histogram*> hs;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [n, c] : counters_) cs.push_back(c.get());
    for (auto& [n, g] : gauges_) gs.push_back(g.get());
    for (auto& [n, h] : histograms_) hs.push_back(h.get());
  }
  for (Counter* c : cs) c->reset();
  for (Gauge* g : gs) g->reset();
  for (Histogram* h : hs) h->reset();
}

MetricsRegistry& metrics() {
  static MetricsRegistry* reg = new MetricsRegistry();  // never destroyed
  return *reg;
}

}  // namespace obs
}  // namespace rannc
