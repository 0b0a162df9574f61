#include "models/moe.h"

#include <cmath>
#include <string>

namespace rannc {

namespace {

ValueId linear(TaskGraph& g, const std::string& prefix, ValueId x,
               std::int64_t n, std::int64_t in, std::int64_t out) {
  ValueId w = g.add_param(prefix + ".weight", Shape{out, in});
  ValueId b = g.add_param(prefix + ".bias", Shape{out});
  ValueId wt = g.add_task(prefix + ".weight_t", OpKind::Transpose, {w},
                          Shape{in, out}, DType::F32,
                          OpAttrs{}.set("perm0", std::int64_t{1})
                                   .set("perm1", std::int64_t{0}));
  ValueId y = g.add_task(prefix + ".matmul", OpKind::MatMul, {x, wt},
                         Shape{n, out});
  return g.add_task(prefix + ".bias_add", OpKind::Add, {y, b}, Shape{n, out});
}

ValueId layer_norm(TaskGraph& g, const std::string& prefix, ValueId x,
                   Shape shape) {
  const std::int64_t h = shape.dims.back();
  ValueId gamma = g.add_param(prefix + ".gamma", Shape{h});
  ValueId beta = g.add_param(prefix + ".beta", Shape{h});
  return g.add_task(prefix, OpKind::LayerNorm, {x, gamma, beta},
                    std::move(shape));
}

}  // namespace

std::int64_t MoeConfig::param_count() const {
  const std::int64_t h = hidden;
  const std::int64_t f = ffn_mult * h;
  const std::int64_t emb = vocab * h + seq_len * h;
  const std::int64_t attn = 4 * (h * h + h) + 2 * h;  // qkv+out, ln1
  const std::int64_t router = h * experts + experts + 2 * h;  // + ln2
  const std::int64_t expert = h * f + f + f * h + h;  // fc1 + fc2
  const std::int64_t final_ln = 2 * h;
  return emb + layers * (attn + router + experts * expert) + final_ln;
}

BuiltModel build_moe(const MoeConfig& cfg) {
  const std::int64_t s = cfg.seq_len;
  const std::int64_t h = cfg.hidden;
  const std::int64_t a = cfg.num_heads();
  const std::int64_t dh = h / a;
  const std::int64_t E = cfg.experts;
  const std::int64_t cap = cfg.capacity();
  const std::int64_t f = cfg.ffn_mult * h;

  BuiltModel m;
  m.transformer = true;
  m.hidden = h;
  m.seq_len = s;
  TaskGraph& g = m.graph;
  auto begin_layer = [&](const std::string& name) {
    m.layers.push_back({name, static_cast<TaskId>(g.num_tasks()), 0});
  };
  auto end_layer = [&] {
    m.layers.back().end = static_cast<TaskId>(g.num_tasks());
  };

  ValueId input_ids = g.add_input("input_ids", Shape{s}, DType::F32);
  ValueId causal_mask = g.add_input("causal_mask", Shape{1, s, s});
  ValueId labels = g.add_input("labels", Shape{s}, DType::F32);
  // Top-1 routing realized as one-hot dispatch/combine matmuls. The routing
  // pattern itself is an input (it depends on the data, not the weights), so
  // one dispatch matrix {cap, s} and its combine transpose {s, cap} are
  // shared by every expert — the synthetic equivalent of uniform load.
  ValueId dispatch = g.add_input("dispatch", Shape{cap, s});
  ValueId combine = g.add_input("combine", Shape{s, cap});

  begin_layer("embeddings");
  ValueId wte = g.add_param("wte", Shape{cfg.vocab, h});
  ValueId x = g.add_task("embeddings.tok", OpKind::Embedding,
                         {input_ids, wte}, Shape{s, h});
  ValueId wpe = g.add_param("wpe", Shape{s, h});
  x = g.add_task("embeddings.add_pos", OpKind::Add, {x, wpe}, Shape{s, h});
  end_layer();

  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    const std::string p = "block" + std::to_string(l);
    begin_layer(p);
    // Pre-norm attention (same structure as the GPT-2 builder).
    ValueId ln1 = layer_norm(g, p + ".ln1", x, Shape{s, h});
    ValueId q = linear(g, p + ".attn.q", ln1, s, h, h);
    ValueId k = linear(g, p + ".attn.k", ln1, s, h, h);
    ValueId v = linear(g, p + ".attn.v", ln1, s, h, h);
    auto heads3 = [&](ValueId t, const std::string& n, bool kt) {
      ValueId r = g.add_task(p + ".attn." + n + "_split", OpKind::Reshape, {t},
                             Shape{s, a, dh});
      OpAttrs perm;
      if (kt)
        perm.set("perm0", std::int64_t{1})
            .set("perm1", std::int64_t{2})
            .set("perm2", std::int64_t{0});
      else
        perm.set("perm0", std::int64_t{1})
            .set("perm1", std::int64_t{0})
            .set("perm2", std::int64_t{2});
      return g.add_task(p + ".attn." + n + "_perm", OpKind::Transpose, {r},
                        kt ? Shape{a, dh, s} : Shape{a, s, dh}, DType::F32,
                        perm);
    };
    ValueId qh = heads3(q, "q", false);
    ValueId kh = heads3(k, "k", true);
    ValueId vh = heads3(v, "v", false);
    ValueId scores = g.add_task(p + ".attn.scores", OpKind::MatMul, {qh, kh},
                                Shape{a, s, s});
    scores = g.add_task(
        p + ".attn.scale", OpKind::Scale, {scores}, Shape{a, s, s}, DType::F32,
        OpAttrs{}.set("scale", 1.0 / std::sqrt(static_cast<double>(dh))));
    scores = g.add_task(p + ".attn.mask", OpKind::Add, {scores, causal_mask},
                        Shape{a, s, s});
    ValueId probs = g.add_task(p + ".attn.softmax", OpKind::Softmax, {scores},
                               Shape{a, s, s});
    ValueId ctx = g.add_task(p + ".attn.context", OpKind::MatMul, {probs, vh},
                             Shape{a, s, dh});
    ctx = g.add_task(p + ".attn.merge_perm", OpKind::Transpose, {ctx},
                     Shape{s, a, dh}, DType::F32,
                     OpAttrs{}.set("perm0", std::int64_t{1})
                              .set("perm1", std::int64_t{0})
                              .set("perm2", std::int64_t{2}));
    ctx = g.add_task(p + ".attn.merge", OpKind::Reshape, {ctx}, Shape{s, h});
    ValueId attn_out = linear(g, p + ".attn.out", ctx, s, h, h);
    x = g.add_task(p + ".attn.residual", OpKind::Add, {attn_out, x},
                   Shape{s, h});

    // MoE FFN: router scores the tokens, each expert runs its FFN on its
    // capacity slice, the combine matmul scatters the results back and the
    // experts accumulate onto the residual stream.
    ValueId ln2 = layer_norm(g, p + ".ln2", x, Shape{s, h});
    ValueId gate = linear(g, p + ".router", ln2, s, h, E);
    gate = g.add_task(p + ".router.softmax", OpKind::Softmax, {gate},
                      Shape{s, E});
    // The router's probabilities feed the (data-dependent) dispatch; the
    // graph keeps the dependency via a cheap elementwise use so the router
    // is never dead code.
    ValueId gate_scaled =
        g.add_task(p + ".router.weight", OpKind::Scale, {gate}, Shape{s, E},
                   DType::F32, OpAttrs{}.set("scale", 1.0));
    g.mark_output(gate_scaled);
    for (std::int64_t e = 0; e < E; ++e) {
      const std::string ep = p + ".expert" + std::to_string(e);
      ValueId xe = g.add_task(ep + ".dispatch", OpKind::MatMul,
                              {dispatch, ln2}, Shape{cap, h});
      ValueId ff = linear(g, ep + ".fc1", xe, cap, h, f);
      ff = g.add_task(ep + ".gelu", OpKind::Gelu, {ff}, Shape{cap, f});
      ff = linear(g, ep + ".fc2", ff, cap, f, h);
      ValueId ye = g.add_task(ep + ".combine", OpKind::MatMul, {combine, ff},
                              Shape{s, h});
      x = g.add_task(ep + ".accumulate", OpKind::Add, {ye, x}, Shape{s, h});
    }
    end_layer();
  }

  begin_layer("lm_head");
  x = layer_norm(g, "final_ln", x, Shape{s, h});
  ValueId wte_t = g.add_task("lm_head.tie_transpose", OpKind::Transpose, {wte},
                             Shape{h, cfg.vocab}, DType::F32,
                             OpAttrs{}.set("perm0", std::int64_t{1})
                                      .set("perm1", std::int64_t{0}));
  ValueId logits = g.add_task("lm_head.decoder", OpKind::MatMul, {x, wte_t},
                              Shape{s, cfg.vocab});
  ValueId loss = g.add_task("lm_head.loss", OpKind::CrossEntropy,
                            {logits, labels}, Shape{});
  g.mark_output(loss);
  end_layer();

  return m;
}

}  // namespace rannc
