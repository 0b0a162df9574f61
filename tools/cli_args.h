// Command-line handling for the `rannc` tool.
//
// ArgParser is a deliberately small typed-flag parser: every command
// registers its flags once (name, destination, value name, help line) and
// gets consistent behaviour for free — `--help`/`-h` prints a grouped
// usage page, an unknown flag or a missing value is a diagnosed error, and
// numeric values are range-checked (a value outside the destination's
// type is a bad value) instead of silently truncated.
//
// The model/cluster flag groups the commands share (which model builder
// to run and how to shape it, plus the cluster geometry and search thread
// count) live here too, so every command accepts identical spellings and
// builds identical graphs and requests.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "rannc.h"

namespace rannc::cli {

class ArgParser {
 public:
  enum class Status {
    Ok,     ///< all arguments consumed
    Help,   ///< --help/-h was given; usage already printed
    Error,  ///< bad flag/value; diagnostic already printed
  };

  ArgParser(std::string prog, std::string summary)
      : prog_(std::move(prog)), summary_(std::move(summary)) {}

  /// Starts a new group in the --help output.
  void section(const std::string& title);

  /// Boolean switch (no value).
  void flag(const std::string& name, bool* dst, const std::string& help);

  /// Value-taking options; `value` names the operand in the usage page.
  void opt(const std::string& name, std::string* dst,
           const std::string& value, const std::string& help);
  void opt(const std::string& name, std::int64_t* dst,
           const std::string& value, const std::string& help);
  void opt(const std::string& name, int* dst, const std::string& value,
           const std::string& help);
  void opt(const std::string& name, double* dst, const std::string& value,
           const std::string& help);

  /// A required positional operand; operands fill in registration order.
  void operand(std::string* dst, const std::string& name);

  /// Parses argv[1..argc) into the registered destinations. Prints its own
  /// diagnostics (and the usage page for Help) to stderr.
  Status parse(int argc, char** argv) const;

  void print_usage(std::ostream& os) const;

 private:
  enum class Kind { Section, Switch, String, Int64, Int, Double, Operand };
  struct Entry {
    Kind kind;
    std::string name;   // "--flag", the section title, or the operand name
    std::string value;  // operand name shown in help
    std::string help;
    void* dst = nullptr;
  };
  const Entry* find(const std::string& name) const;

  std::string prog_, summary_;
  std::vector<Entry> entries_;
};

/// Registers --model plus the per-family shape flags into `p`. The shape
/// struct (and the builder dispatch, serve::build_model) lives in
/// src/serve: the daemon's request vocabulary and the --model flags are
/// the same surface by construction.
void register_model_flags(ArgParser& p, serve::ModelSpec& o);

/// Cluster geometry, search budget, and the pruning knob shared by every
/// command that runs the partition search. One flag group mapping 1:1
/// onto SearchRequest, so the commands accept identical spellings and
/// build identical requests.
struct SearchOptions {
  int nodes = 0, devices_per_node = 0;
  std::int64_t batch_size = 0;
  int threads = 0;
  std::int64_t max_dp_cells = -1;  ///< -1 = keep default; 0 = unlimited
  std::int64_t blocks = 0;
  double memory_margin = 0;
  bool no_coarsening = false;
  bool no_prune = false;
};

/// Registers the shared search flag group into `p`.
void register_search_flags(ArgParser& p, SearchOptions& o);

/// Overlays the explicitly-set fields onto a SearchRequest.
void apply_search(const SearchOptions& o, SearchRequest& req);

/// The flag groups `rannc` registers for a command before the command's
/// own group; filled by the parse, read by the command's body.
struct Inputs {
  serve::ModelSpec model;
  SearchOptions search;
};

/// A command's body, run after a successful parse; returns the exit code.
using Body = std::function<int()>;

/// The commands (tools/<command>.cpp). Each registers its own flag group
/// into `p` and returns its body.
Body lint_command(ArgParser& p, const Inputs& in);
Body trace_command(ArgParser& p, const Inputs& in);
Body explain_command(ArgParser& p, const Inputs& in);
Body diff_command(ArgParser& p, const Inputs& in);
Body serve_command(ArgParser& p, const Inputs& in);

}  // namespace rannc::cli
