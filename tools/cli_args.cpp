#include "cli_args.h"

#include <iostream>
#include <stdexcept>

namespace rannc::cli {

void ArgParser::section(const std::string& title) {
  entries_.push_back({Kind::Section, title, "", "", nullptr});
}

void ArgParser::flag(const std::string& name, bool* dst,
                     const std::string& help) {
  entries_.push_back({Kind::Switch, name, "", help, dst});
}

void ArgParser::opt(const std::string& name, std::string* dst,
                    const std::string& value, const std::string& help) {
  entries_.push_back({Kind::String, name, value, help, dst});
}

void ArgParser::opt(const std::string& name, std::int64_t* dst,
                    const std::string& value, const std::string& help) {
  entries_.push_back({Kind::Int64, name, value, help, dst});
}

void ArgParser::opt(const std::string& name, int* dst,
                    const std::string& value, const std::string& help) {
  entries_.push_back({Kind::Int, name, value, help, dst});
}

void ArgParser::opt(const std::string& name, double* dst,
                    const std::string& value, const std::string& help) {
  entries_.push_back({Kind::Double, name, value, help, dst});
}

void ArgParser::operand(std::string* dst, const std::string& name) {
  entries_.push_back({Kind::Operand, name, "", "", dst});
}

const ArgParser::Entry* ArgParser::find(const std::string& name) const {
  for (const Entry& e : entries_)
    if (e.kind != Kind::Section && e.kind != Kind::Operand && e.name == name)
      return &e;
  return nullptr;
}

void ArgParser::print_usage(std::ostream& os) const {
  os << "Usage: " << prog_ << " [options]";
  for (const Entry& e : entries_)
    if (e.kind == Kind::Operand) os << ' ' << e.name;
  os << "\n" << summary_ << "\n";
  for (const Entry& e : entries_) {
    if (e.kind == Kind::Operand) continue;
    if (e.kind == Kind::Section) {
      os << e.name << ":\n";
      continue;
    }
    std::string head = "  " + e.name;
    if (e.kind != Kind::Switch) head += " <" + e.value + ">";
    os << head;
    for (std::size_t n = head.size(); n < 28; ++n) os << ' ';
    os << e.help << "\n";
  }
}

ArgParser::Status ArgParser::parse(int argc, char** argv) const {
  std::vector<const Entry*> operands;
  for (const Entry& e : entries_)
    if (e.kind == Kind::Operand) operands.push_back(&e);
  std::size_t filled = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      print_usage(std::cerr);
      return Status::Help;
    }
    const Entry* e = find(a);
    if (!e && a.rfind('-', 0) != 0 && filled < operands.size()) {
      *static_cast<std::string*>(operands[filled++]->dst) = a;
      continue;
    }
    if (!e) {
      std::cerr << prog_ << ": unknown argument '" << a
                << "' (try --help)\n";
      return Status::Error;
    }
    if (e->kind == Kind::Switch) {
      *static_cast<bool*>(e->dst) = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << prog_ << ": missing value for '" << a << "'\n";
      return Status::Error;
    }
    const std::string v = argv[++i];
    try {
      // A number must use the whole value: "2x" is bad, not 2.
      std::size_t used = v.size();
      switch (e->kind) {
        case Kind::String:
          *static_cast<std::string*>(e->dst) = v;
          break;
        case Kind::Int64:
          *static_cast<std::int64_t*>(e->dst) = std::stoll(v, &used);
          break;
        case Kind::Int:  // out of int's range throws, like out of int64's
          *static_cast<int*>(e->dst) = std::stoi(v, &used);
          break;
        case Kind::Double:
          *static_cast<double*>(e->dst) = std::stod(v, &used);
          break;
        case Kind::Switch:
        case Kind::Section:
        case Kind::Operand:
          break;
      }
      if (used != v.size()) throw std::invalid_argument(v);
    } catch (const std::exception&) {
      std::cerr << prog_ << ": bad value '" << v << "' for '" << a << "'\n";
      return Status::Error;
    }
  }
  if (filled < operands.size()) {
    std::cerr << prog_ << ": missing operand " << operands[filled]->name
              << " (try --help)\n";
    return Status::Error;
  }
  return Status::Ok;
}

void register_model_flags(ArgParser& p, serve::ModelSpec& o) {
  p.section("Model (0/unset = the builder's default)");
  p.opt("--model", &o.model, "name", "mlp | bert | gpt2 | t5 | resnet | moe");
  p.opt("--layers", &o.layers, "N", "transformer layers");
  p.opt("--hidden", &o.hidden, "N", "hidden width");
  p.opt("--seq", &o.seq, "N", "sequence length");
  p.opt("--vocab", &o.vocab, "N", "vocabulary size");
  p.opt("--heads", &o.heads, "N", "attention heads");
  p.opt("--depth", &o.depth, "N", "resnet depth");
  p.opt("--width", &o.width, "N", "resnet width factor");
  p.opt("--image", &o.image, "N", "resnet image size");
  p.opt("--classes", &o.classes, "N", "output classes");
  p.opt("--batch", &o.batch, "N", "mlp per-step batch");
  p.opt("--input-dim", &o.input_dim, "N", "mlp input dimension");
  p.opt("--experts", &o.experts, "N", "moe experts per layer");
}

void register_search_flags(ArgParser& p, SearchOptions& o) {
  p.section("Cluster / search (0/unset = request default)");
  p.opt("--nodes", &o.nodes, "N", "cluster nodes");
  p.opt("--devices-per-node", &o.devices_per_node, "N", "devices per node");
  p.opt("--batch-size", &o.batch_size, "N", "global batch size");
  p.opt("--threads", &o.threads, "N",
        "search worker threads (0 = RANNC_THREADS env, else 1)");
  p.opt("--max-dp-cells", &o.max_dp_cells, "N",
        "abort the search beyond this many DP cells (0 = unlimited)");
  p.opt("--blocks", &o.blocks, "N", "target coarsened block count");
  p.opt("--memory-margin", &o.memory_margin, "F",
        "usable fraction of device memory");
  p.flag("--no-coarsening", &o.no_coarsening,
         "search over atomic units instead of blocks");
  p.flag("--no-prune", &o.no_prune,
         "disable branch-and-bound pruning (exhaustive sweep)");
}

void apply_search(const SearchOptions& o, SearchRequest& req) {
  if (o.nodes) req.cluster.num_nodes = o.nodes;
  if (o.devices_per_node) req.cluster.devices_per_node = o.devices_per_node;
  if (o.batch_size) req.batch_size = o.batch_size;
  req.budget.threads = o.threads;
  if (o.max_dp_cells >= 0) req.budget.max_dp_cells = o.max_dp_cells;
  if (o.blocks) req.num_blocks = static_cast<int>(o.blocks);
  if (o.memory_margin > 0) req.memory_margin = o.memory_margin;
  if (o.no_coarsening) req.use_coarsening = false;
  if (o.no_prune) req.prune = false;
}

}  // namespace rannc::cli
