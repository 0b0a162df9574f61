// rannc-serve — the partition-as-a-service daemon.
//
// A long-lived process answering newline-delimited JSON partition requests
// on stdin (or --input FILE), one reply line per request on stdout:
//
//   echo '{"id":1,"model":"bert","layers":4,"hidden":256,
//          "nodes":2,"devices_per_node":4,"batch_size":64}' | rannc-serve
//
// The first request for a (model, geometry) runs the full parallel search;
// every later identical request — across restarts too, when --store names
// a durable directory — is a cache hit answered in microseconds. Control
// lines: {"cmd":"fingerprint","model":...} prints the canonical graph
// fingerprint, {"cmd":"stats"} the serve counters, {"cmd":"shutdown"}
// stops the daemon (EOF does too).
//
// Requests are dispatched to --workers transport threads, so concurrent
// duplicate submissions coalesce onto one search (single-flight) and
// misses beyond --max-queue in-flight searches get an immediate
// "overloaded" reply. Replies carry the request id; their order across
// concurrent requests is not defined.
#include <atomic>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cli_args.h"
#include "rannc.h"

namespace {

using namespace rannc;

struct Options {
  cli::SearchOptions search;
  std::string store_dir;
  std::string input_file;
  std::string metrics_file;
  int workers = 4;
  int max_queue = 4;
  bool no_persist = false;
  bool quiet = false;
};

int run(const Options& o) {
  serve::ServeOptions so;
  so.store_dir = o.store_dir;
  so.max_queue = o.max_queue;
  so.persist = !o.no_persist;
  // The shared search flag group becomes the daemon's request defaults:
  // wire requests inherit them and override field by field.
  cli::apply_search(o.search, so.request_defaults);
  serve::PlanServer server(so);

  std::ifstream file;
  std::istream* in = &std::cin;
  if (!o.input_file.empty()) {
    file.open(o.input_file);
    if (!file) {
      RANNC_LOG_ERROR("cannot open input file '" << o.input_file << "'");
      return 2;
    }
    in = &file;
  }

  // Bounded line queue feeding the transport threads. The bound only
  // backpressures the reader; *search* admission control (shedding) is the
  // server's own leader limit.
  std::mutex mu;
  std::condition_variable cv_push, cv_pop;
  std::deque<std::string> queue;
  bool eof = false;
  std::atomic<bool> stop{false};
  const std::size_t kQueueCap =
      static_cast<std::size_t>(o.workers) * 4 + 4;

  std::mutex out_mu;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(o.workers));
  for (int w = 0; w < o.workers; ++w) {
    workers.emplace_back([&] {
      while (true) {
        std::string line;
        {
          std::unique_lock<std::mutex> lk(mu);
          cv_pop.wait(lk, [&] { return eof || !queue.empty(); });
          if (queue.empty()) return;  // eof && drained
          line = std::move(queue.front());
          queue.pop_front();
        }
        cv_push.notify_one();
        if (line.empty()) continue;
        const auto wr = server.serve_line(line);
        {
          std::lock_guard<std::mutex> lk(out_mu);
          std::cout << wr.reply << '\n' << std::flush;
        }
        if (wr.shutdown) {
          stop.store(true, std::memory_order_relaxed);
          cv_pop.notify_all();
        }
      }
    });
  }

  std::string line;
  while (!stop.load(std::memory_order_relaxed) && std::getline(*in, line)) {
    std::unique_lock<std::mutex> lk(mu);
    cv_push.wait(lk, [&] {
      return queue.size() < kQueueCap ||
             stop.load(std::memory_order_relaxed);
    });
    if (stop.load(std::memory_order_relaxed)) break;
    queue.push_back(std::move(line));
    lk.unlock();
    cv_pop.notify_one();
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    eof = true;
  }
  cv_pop.notify_all();
  for (std::thread& t : workers) t.join();

  if (!o.metrics_file.empty() &&
      !obs::metrics().write_json_file(o.metrics_file))
    RANNC_LOG_ERROR("cannot write metrics file '" << o.metrics_file << "'");

  if (!o.quiet) {
    const auto s = server.stats();
    std::cerr << "rannc-serve: " << s.hits << " hits (" << s.disk_hits
              << " from disk), " << s.misses << " misses (" << s.coalesced
              << " coalesced, " << s.searches << " searches), " << s.shed
              << " shed, " << s.errors << " errors\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  cli::ArgParser p("rannc-serve",
                   "Long-lived partition service: newline-delimited JSON "
                   "requests on stdin, one reply line each on stdout.");
  cli::register_search_flags(p, o.search);
  p.section("Service");
  p.opt("--store", &o.store_dir, "DIR",
        "durable plan store directory (empty = memory only)");
  p.opt("--workers", &o.workers, "N", "transport threads (default 4)");
  p.opt("--max-queue", &o.max_queue, "N",
        "in-flight searches before misses are shed (default 4)");
  p.flag("--no-persist", &o.no_persist,
         "serve from the store but do not write new entries");
  p.opt("--input", &o.input_file, "FILE",
        "read requests from FILE instead of stdin");
  p.opt("--metrics", &o.metrics_file, "FILE",
        "write the obs metrics registry JSON at exit");
  p.flag("--quiet", &o.quiet, "suppress the stderr summary");
  if (p.parse(argc, argv) != cli::ArgParser::Status::Ok) return 2;
  if (o.workers < 1 || o.max_queue < 1) {
    RANNC_LOG_ERROR("--workers and --max-queue must be >= 1");
    return 2;
  }
  try {
    return run(o);
  } catch (const std::exception& e) {
    RANNC_LOG_ERROR("rannc-serve: " << e.what());
    return 2;
  }
}
