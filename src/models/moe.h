// Synthetic Mixture-of-Experts decoder builder (PR 10).
//
// The paper targets GPT-3-scale models whose task graphs run to hundreds of
// thousands of atomic operations; the dense builders in this directory top
// out around a few thousand tasks. A top-1-routed MoE decoder gets there
// honestly — every expert is a real parameterized FFN on its capacity slice
// of the tokens — so bench_search can measure the bound-and-prune
// search on a graph of RaNNC's intended magnitude without fabricating
// degenerate op chains.
#pragma once

#include <cstdint>

#include "models/built_model.h"

namespace rannc {

struct MoeConfig {
  std::int64_t hidden = 1024;
  std::int64_t layers = 24;
  std::int64_t seq_len = 1024;
  std::int64_t vocab = 50257;
  std::int64_t heads = 0;      ///< 0 = hidden / 64
  std::int64_t experts = 64;   ///< experts per MoE FFN layer
  /// Expert FFN width multiplier (dense GPT-2 uses 4).
  std::int64_t ffn_mult = 4;

  [[nodiscard]] std::int64_t num_heads() const {
    return heads > 0 ? heads : hidden / 64;
  }
  /// Tokens routed to one expert under top-1 routing with capacity
  /// factor 1 (at least 1 so tiny test configs stay well-formed).
  [[nodiscard]] std::int64_t capacity() const {
    const std::int64_t c = seq_len / (experts > 0 ? experts : 1);
    return c > 0 ? c : 1;
  }
  [[nodiscard]] std::int64_t param_count() const;
};

/// Builds the MoE decoder: embeddings, `layers` pre-norm blocks
/// (self-attention + top-1 routed expert FFNs), tied LM head. Task count
/// grows as layers * experts * ~10, reaching the 100k-task regime at e.g.
/// 96 layers x 128 experts.
BuiltModel build_moe(const MoeConfig& cfg);

}  // namespace rannc
