// Shared command-line handling for the rannc-* tools.
//
// ArgParser is a deliberately small typed-flag parser: every tool
// registers its flags once (name, destination, value name, help line) and
// gets consistent behaviour for free — `--help`/`-h` prints a grouped
// usage page, an unknown flag or a missing value is a diagnosed error, and
// numeric values are range-checked by std::stoll instead of silently
// truncated.
//
// The model/cluster flag groups every tool shares (which model builder to
// run and how to shape it, plus the cluster geometry and search thread
// count) live here too, so `rannc-lint`, `rannc-trace` and `rannc-sim`
// accept identical spellings and build identical graphs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "rannc.h"

namespace rannc {
namespace cli {

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

  /// Parses argv into the registered destinations. Prints its own
  /// diagnostics (and the usage page for Help) to stderr.
  Status parse(int argc, char** argv) const;

  void print_usage(std::ostream& os) const;

 private:
  enum class Kind { Section, Switch, String, Int64, Int, Double };
  struct Entry {
    Kind kind;
    std::string name;   // "--flag", or the section title
    std::string value;  // operand name shown in help
    std::string help;
    void* dst = nullptr;
  };
  const Entry* find(const std::string& name) const;

  std::string prog_, summary_;
  std::vector<Entry> entries_;
};

/// Shape parameters of the built-in model builders. The struct (and the
/// builder dispatch) lives in src/serve — the daemon's request vocabulary
/// and the tools' --model flags are the same surface by construction.
using ModelOptions = serve::ModelSpec;

/// Registers --model plus the per-family shape flags into `p`.
void register_model_flags(ArgParser& p, ModelOptions& o);

/// Builds the selected model; throws std::invalid_argument for an unknown
/// or empty --model. Thin wrapper over serve::build_model.
BuiltModel build_model(const ModelOptions& o);

/// Cluster geometry, search budget, and the pruning knob shared by
/// every tool that runs the partition search (rannc-lint, rannc-sim,
/// rannc-serve, ...). One flag group mapping 1:1 onto SearchRequest, so
/// the tools accept identical spellings and build identical requests.
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

}  // namespace cli
}  // namespace rannc
