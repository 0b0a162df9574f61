// The serving daemon's model vocabulary.
//
// A partition request names a model *family* plus shape parameters rather
// than shipping a serialized graph — the daemon owns the builders (the
// same ones every rannc command exposes behind --model) and rebuilds the
// graph on first sight. ModelSpec is that request surface: one flat struct
// covering every family, 0/empty meaning "builder default", with a
// canonical signature string used as the daemon's graph-cache key and
// echoed in traces. The cli layer aliases its ModelOptions to this struct
// so the daemon, the tools, and the benches accept identical spellings.
#pragma once

#include <cstdint>
#include <string>

#include "models/built_model.h"
#include "util/json.h"

namespace rannc {
namespace serve {

/// Shape parameters of the built-in model builders; 0/unset keeps the
/// builder's default. The same option set covers every family — each
/// builder reads the fields that apply to it.
struct ModelSpec {
  std::string model;  ///< mlp | bert | gpt2 | t5 | resnet | moe
  std::int64_t layers = 0, hidden = 0, seq = 0, vocab = 0, heads = 0;
  std::int64_t depth = 0, width = 0, image = 0, classes = 0;
  std::int64_t batch = 0, input_dim = 0, experts = 0;

  friend bool operator==(const ModelSpec&, const ModelSpec&) = default;
};

/// Builds the selected model; throws std::invalid_argument for an unknown
/// or empty `model`.
BuiltModel build_model(const ModelSpec& spec);

/// Canonical textual form, e.g. "model=bert,layers=4,hidden=256". Fields
/// at their 0/empty default are omitted, so two spellings of the same
/// request canonicalize identically. Note this is a *request* identity
/// (daemon graph-cache key), not a graph identity — distinct specs can
/// still build fingerprint-identical graphs, which the plan cache resolves.
std::string canonical_sig(const ModelSpec& spec);

/// Reads the model fields ("model", "layers", ...) from a parsed JSON
/// request object; absent fields keep their defaults. Throws
/// std::invalid_argument on mistyped fields.
ModelSpec spec_from_json(const json::Value& v);

}  // namespace serve
}  // namespace rannc
