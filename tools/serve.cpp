// rannc serve — the partition-as-a-service daemon.
//
// A long-lived process answering newline-delimited JSON partition requests
// on stdin (or --input FILE), one reply line per request on stdout:
//
//   echo '{"id":1,"model":"bert","layers":4,"hidden":256,
//          "nodes":2,"devices_per_node":4,"batch_size":64}' | rannc serve
//
// The first request for a (model, geometry) runs the full parallel search;
// every later identical request — across restarts too, when --store names
// a durable directory — is a cache hit answered in microseconds. Control
// lines: {"cmd":"fingerprint","model":...} prints the canonical graph
// fingerprint, {"cmd":"stats"} the serve counters, {"cmd":"shutdown"}
// stops the daemon (EOF does too).
//
// Requests are answered one at a time, in input order; a miss's search
// uses every core (--threads). Replies carry the request id.
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "cli_args.h"
#include "rannc.h"

namespace rannc::cli {
namespace {

struct Options {
  std::string store_dir;
  std::string input_file;
  std::string metrics_file;
  bool no_persist = false;
  bool quiet = false;
};

int run(const Inputs& in, const Options& o) {
  serve::ServeOptions so;
  so.store_dir = o.store_dir;
  so.persist = !o.no_persist;
  // The shared search flag group becomes the daemon's request defaults:
  // wire requests inherit them and override field by field.
  apply_search(in.search, so.request_defaults);
  serve::PlanServer server(so);

  std::ifstream file;
  std::istream* input = &std::cin;
  if (!o.input_file.empty()) {
    file.open(o.input_file);
    if (!file)
      throw std::runtime_error("cannot open input file '" + o.input_file + "'");
    input = &file;
  }

  std::string line;
  while (std::getline(*input, line)) {
    if (line.empty()) continue;
    const auto wr = server.serve_line(line);
    std::cout << wr.reply << '\n' << std::flush;
    if (wr.shutdown) break;
  }

  if (!o.metrics_file.empty() &&
      !obs::metrics().write_json_file(o.metrics_file))
    RANNC_LOG_ERROR("cannot write metrics file '" << o.metrics_file << "'");

  if (!o.quiet) {
    const auto s = server.stats();
    std::cerr << "rannc serve: " << s.hits << " hits (" << s.disk_hits
              << " from disk), " << s.misses << " misses, " << s.errors
              << " errors\n";
  }
  return 0;
}

}  // namespace

Body serve_command(ArgParser& p, const Inputs& in) {
  auto o = std::make_shared<Options>();
  p.section("Service");
  p.opt("--store", &o->store_dir, "DIR",
        "durable plan store directory (empty = memory only)");
  p.flag("--no-persist", &o->no_persist,
         "serve from the store but do not write new entries");
  p.opt("--input", &o->input_file, "FILE",
        "read requests from FILE instead of stdin");
  p.opt("--metrics", &o->metrics_file, "FILE",
        "write the obs metrics registry JSON at exit");
  p.flag("--quiet", &o->quiet, "suppress the stderr summary");
  return [o, &in] { return run(in, *o); };
}

}  // namespace rannc::cli
