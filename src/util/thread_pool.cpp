#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "obs/trace.h"

namespace rannc {

std::optional<int> parse_thread_count(const char* text) {
  if (!text) return std::nullopt;
  char* end = nullptr;
  const long long n = std::strtoll(text, &end, 10);  // saturates on overflow
  if (end == text || *end != '\0' || n <= 0) return std::nullopt;
  return static_cast<int>(std::min<long long>(n, kMaxThreads));
}

struct ThreadPool::ActiveJob {
  const std::function<void(std::int64_t, std::int64_t)>* fn = nullptr;
  std::int64_t end = 0, chunk = 1;
  std::int64_t next = 0;  // all fields guarded by the pool mutex
  int done_chunks = 0;
  int total_chunks = 0;
  int active = 0;  // workers currently executing chunks of this job
};

ThreadPool::ThreadPool(unsigned threads) {
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] {
      obs::set_thread_name("pool-worker-" + std::to_string(i));
      worker_loop();
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()) - 1);
  return pool;
}

void ThreadPool::parallel_for(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (end <= begin) return;
  const std::int64_t n = end - begin;
  const auto parallelism = static_cast<std::int64_t>(workers_.size()) + 1;
  if (workers_.empty() || n < 2 * parallelism) {
    fn(begin, end);
    return;
  }
  std::lock_guard<std::mutex> serialize(caller_mu_);
  run_job(begin, end, std::max<std::int64_t>(1, n / (4 * parallelism)), fn);
}

void ThreadPool::parallel_each(std::int64_t n,
                               const std::function<void(std::int64_t)>& fn) {
  if (n <= 0) return;
  const std::function<void(std::int64_t, std::int64_t)> range_fn =
      [&fn](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) fn(i);
      };
  if (workers_.empty()) {
    range_fn(0, n);
    return;
  }
  std::lock_guard<std::mutex> serialize(caller_mu_);
  run_job(0, n, /*chunk=*/1, range_fn);
}

void ThreadPool::run_job(
    std::int64_t begin, std::int64_t end, std::int64_t chunk,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  ActiveJob job;
  job.fn = &fn;
  job.end = end;
  job.next = begin;
  job.chunk = chunk;
  job.total_chunks = static_cast<int>((end - begin + chunk - 1) / chunk);

  std::unique_lock<std::mutex> lk(mu_);
  job_ = &job;
  ++generation_;
  cv_work_.notify_all();

  // The caller participates in execution.
  while (job.next < job.end) {
    const std::int64_t b = job.next;
    const std::int64_t e = std::min(job.end, b + job.chunk);
    job.next = e;
    lk.unlock();
    (*job.fn)(b, e);
    lk.lock();
    ++job.done_chunks;
  }
  cv_done_.wait(lk, [&] {
    return job.done_chunks == job.total_chunks && job.active == 0;
  });
  job_ = nullptr;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    cv_work_.wait(lk, [&] { return stop_ || (job_ && generation_ != seen); });
    if (stop_) return;
    seen = generation_;
    ActiveJob* job = job_;
    ++job->active;
    while (job->next < job->end) {
      const std::int64_t b = job->next;
      const std::int64_t e = std::min(job->end, b + job->chunk);
      job->next = e;
      lk.unlock();
      (*job->fn)(b, e);
      lk.lock();
      ++job->done_chunks;
    }
    --job->active;
    if (job->done_chunks == job->total_chunks && job->active == 0)
      cv_done_.notify_all();
  }
}

}  // namespace rannc
