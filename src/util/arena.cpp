#include "util/arena.h"

#include <cstddef>
#include <new>

#include "obs/metrics.h"

namespace rannc {

namespace {

/// 64-byte slab header preceding every payload. The magic word records the
/// policy that allocated the slab, so a slab allocated while pooling was on
/// is still returned to the pool after pooling is turned off (and vice
/// versa a plain slab is never pooled).
struct alignas(64) SlabHeader {
  std::uint64_t magic = 0;
  std::int64_t capacity = 0;  ///< usable floats in the payload
};
static_assert(sizeof(SlabHeader) == 64, "payload alignment depends on this");

constexpr std::uint64_t kPooledMagic = 0x52414e4e43504f4cULL;  // "RANNCPOL"
constexpr std::uint64_t kPlainMagic = 0x52414e4e43504c4eULL;   // "RANNCPLN"

SlabHeader* header_of(void* base) { return static_cast<SlabHeader*>(base); }

float* payload_of(void* base) {
  return reinterpret_cast<float*>(static_cast<char*>(base) + sizeof(SlabHeader));
}

void* base_of(const float* payload) {
  return const_cast<char*>(reinterpret_cast<const char*>(payload)) -
         sizeof(SlabHeader);
}

void* fresh_slab(std::int64_t capacity, std::uint64_t magic) {
  void* base = ::operator new(
      sizeof(SlabHeader) + static_cast<std::size_t>(capacity) * sizeof(float),
      std::align_val_t(64));
  header_of(base)->magic = magic;
  header_of(base)->capacity = capacity;
  return base;
}

void free_slab(void* base) { ::operator delete(base, std::align_val_t(64)); }

std::int64_t slab_bytes(std::int64_t capacity) {
  return capacity * static_cast<std::int64_t>(sizeof(float));
}

int class_of(std::int64_t numel, int min_log2, int max_log2) {
  for (int c = min_log2; c <= max_log2; ++c)
    if ((std::int64_t{1} << c) >= numel) return c;
  return -1;  // large allocation
}

}  // namespace

Arena::Arena() {
  classes_.resize(static_cast<std::size_t>(kMaxClassLog2) + 1);
}

Arena& Arena::global() {
  static Arena* arena = new Arena();  // leaked: slabs may outlive statics
  return *arena;
}

std::shared_ptr<float[]> Arena::alloc(std::int64_t numel) {
  if (numel < 1) numel = 1;
  allocs_.fetch_add(1, std::memory_order_relaxed);
  requested_bytes_.fetch_add(slab_bytes(numel), std::memory_order_relaxed);

  const bool pooled = enabled();
  void* base = nullptr;
  std::int64_t capacity = 0;
  const int cls = class_of(numel, kMinClassLog2, kMaxClassLog2);
  if (cls >= 0)
    capacity = std::int64_t{1} << cls;
  else
    capacity = (numel + kLargeGranule - 1) / kLargeGranule * kLargeGranule;

  if (pooled) {
    std::lock_guard<std::mutex> lk(mu_);
    if (cls >= 0) {
      auto& list = classes_[static_cast<std::size_t>(cls)];
      if (!list.empty()) {
        base = list.back();
        list.pop_back();
      }
    } else {
      auto it = large_.find(capacity);
      if (it != large_.end() && !it->second.empty()) {
        base = it->second.back();
        it->second.pop_back();
      }
    }
  }
  if (base) {
    pool_hits_.fetch_add(1, std::memory_order_relaxed);
    pooled_bytes_.fetch_sub(slab_bytes(capacity), std::memory_order_relaxed);
  } else {
    base = fresh_slab(capacity, pooled ? kPooledMagic : kPlainMagic);
    fresh_bytes_.fetch_add(slab_bytes(capacity), std::memory_order_relaxed);
  }
  live_bytes_.fetch_add(slab_bytes(capacity), std::memory_order_relaxed);

  return std::shared_ptr<float[]>(payload_of(base),
                                  [base](float*) { global().release(base); });
}

void Arena::release(void* base) {
  SlabHeader* h = header_of(base);
  const std::int64_t capacity = h->capacity;
  live_bytes_.fetch_sub(slab_bytes(capacity), std::memory_order_relaxed);
  const bool pool =
      h->magic == kPooledMagic && enabled() &&
      pooled_bytes_.load(std::memory_order_relaxed) < kMaxPooledBytes;
  if (!pool) {
    free_slab(base);
    return;
  }
  pooled_bytes_.fetch_add(slab_bytes(capacity), std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  const int cls = class_of(capacity, kMinClassLog2, kMaxClassLog2);
  if (cls >= 0 && (std::int64_t{1} << cls) == capacity)
    classes_[static_cast<std::size_t>(cls)].push_back(base);
  else
    large_[capacity].push_back(base);
}

std::int64_t Arena::capacity_floats(const float* payload) {
  if (!payload) return 0;
  return header_of(base_of(payload))->capacity;
}

void Arena::trim() {
  std::vector<void*> victims;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& list : classes_)
      for (void* base : list) victims.push_back(base);
    for (auto& [cap, list] : large_)
      for (void* base : list) victims.push_back(base);
    for (auto& list : classes_) list.clear();
    large_.clear();
  }
  std::int64_t freed = 0;
  for (void* base : victims) {
    freed += slab_bytes(header_of(base)->capacity);
    free_slab(base);
  }
  pooled_bytes_.fetch_sub(freed, std::memory_order_relaxed);
}

void Arena::end_epoch() {
  epochs_.fetch_add(1, std::memory_order_relaxed);
  // Instrument references are stable; look them up once.
  static obs::Counter& allocs = obs::metrics().counter("runtime.arena.allocs");
  static obs::Counter& hits = obs::metrics().counter("runtime.arena.pool_hits");
  static obs::Counter& fresh =
      obs::metrics().counter("runtime.arena.fresh_bytes");
  static obs::Gauge& live = obs::metrics().gauge("runtime.arena.live_bytes");
  static obs::Gauge& pooled =
      obs::metrics().gauge("runtime.arena.pooled_bytes");
  static obs::Gauge& hit_rate = obs::metrics().gauge("runtime.arena.hit_rate");
  std::lock_guard<std::mutex> lk(mu_);  // serialize the delta bookkeeping
  const std::int64_t a = allocs_.load(std::memory_order_relaxed);
  const std::int64_t h = pool_hits_.load(std::memory_order_relaxed);
  const std::int64_t f = fresh_bytes_.load(std::memory_order_relaxed);
  allocs.add(a - pub_allocs_);
  hits.add(h - pub_hits_);
  fresh.add(f - pub_fresh_);
  pub_allocs_ = a;
  pub_hits_ = h;
  pub_fresh_ = f;
  live.set(static_cast<double>(live_bytes_.load(std::memory_order_relaxed)));
  pooled.set(
      static_cast<double>(pooled_bytes_.load(std::memory_order_relaxed)));
  hit_rate.set(a > 0 ? static_cast<double>(h) / static_cast<double>(a) : 0.0);
}

Arena::Stats Arena::stats() const {
  Stats s;
  s.allocs = allocs_.load(std::memory_order_relaxed);
  s.pool_hits = pool_hits_.load(std::memory_order_relaxed);
  s.requested_bytes = requested_bytes_.load(std::memory_order_relaxed);
  s.fresh_bytes = fresh_bytes_.load(std::memory_order_relaxed);
  s.live_bytes = live_bytes_.load(std::memory_order_relaxed);
  s.pooled_bytes = pooled_bytes_.load(std::memory_order_relaxed);
  s.epochs = epochs_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace rannc
