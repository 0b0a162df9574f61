// rannc — the command-line front end: `rannc <command> [flags]`, one
// command per tools/<command>.cpp (`rannc` alone lists them).
//
// This file owns the shell every command shares: the parser (its program
// name is "rannc <command>"), --help, the required --model, and the catch
// of std::exception as exit code 2. A command supplies only its own flag
// group and body. Exit codes: 0 = success, 1 = the command's own failure
// (diagnostics, infeasible plan, mismatching reports), 2 = usage or input
// error.
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "cli_args.h"
#include "rannc.h"

namespace {

using namespace rannc;

struct Command {
  const char* name;
  const char* mode;  ///< second word selecting a sub-mode, or nullptr
  const char* summary;
  bool takes_model;   ///< registers the model flag group; --model required
  bool takes_search;  ///< registers the cluster/search flag group
  cli::Body (*setup)(cli::ArgParser&, const cli::Inputs&);
};

// Sub-modes precede their command so the longer match wins.
const Command kCommands[] = {
    {"lint", nullptr,
     "Static analysis over the built-in models; optionally validates a plan "
     "JSON or runs the partition search.",
     true, true, cli::lint_command},
    {"trace", nullptr,
     "Runs the partition search plus a virtual-time replay of the winning "
     "plan and writes trace/metrics JSON.",
     true, true, cli::trace_command},
    {"explain", "--diff",
     "Compares two attribution reports; numbers within relative tolerance "
     "REL are equal. Exit 1 on any mismatch.",
     false, false, cli::diff_command},
    {"explain", nullptr,
     "Runs the partition search plus a virtual-time replay and writes a "
     "causal attribution report (critical path, conservation-checked time "
     "buckets, per-link contention, what-if estimates).",
     true, true, cli::explain_command},
    {"serve", nullptr,
     "Long-lived partition service: newline-delimited JSON requests on "
     "stdin, one reply line each on stdout.",
     false, true, cli::serve_command},
};

}  // namespace

int main(int argc, char** argv) {
  const Command* cmd = nullptr;
  for (const Command& c : kCommands)
    if (argc >= 2 && std::strcmp(argv[1], c.name) == 0 &&
        (!c.mode || (argc >= 3 && std::strcmp(argv[2], c.mode) == 0))) {
      cmd = &c;
      break;
    }
  if (!cmd) {
    if (argc >= 2 && argv[1][0] != '-')
      std::cerr << "rannc: unknown command '" << argv[1] << "'\n";
    std::cerr << "Usage: rannc <command> [options]  (rannc <command> --help)\n"
                 "Commands:\n";
    for (const Command& c : kCommands) {
      std::string head = std::string("  ") + c.name;
      if (c.mode) head += std::string(" ") + c.mode;
      std::cerr << head << std::string(18 - head.size(), ' ') << c.summary
                << "\n";
    }
    return 2;
  }

  const int words = cmd->mode ? 2 : 1;  // argv[words] is the last word
  std::string prog = std::string("rannc ") + cmd->name;
  if (cmd->mode) prog += std::string(" ") + cmd->mode;
  cli::ArgParser p(prog, cmd->summary);
  cli::Inputs in;
  if (cmd->takes_model) cli::register_model_flags(p, in.model);
  if (cmd->takes_search) cli::register_search_flags(p, in.search);
  const cli::Body body = cmd->setup(p, in);
  if (p.parse(argc - words, argv + words) != cli::ArgParser::Status::Ok)
    return 2;
  if (cmd->takes_model && in.model.model.empty()) {
    p.print_usage(std::cerr);
    return 2;
  }
  try {
    return body();
  } catch (const std::exception& e) {
    RANNC_LOG_ERROR(prog << ": " << e.what());
    return 2;
  }
}
