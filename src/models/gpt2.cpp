#include "models/gpt2.h"

#include <cmath>
#include <string>

namespace rannc {

namespace {

/// PyTorch-convention linear: weight stored [out, in], transposed by an
/// explicit constant task before the GEMM (see models/bert.cpp).
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

std::int64_t Gpt2Config::param_count() const {
  const std::int64_t h = hidden;
  const std::int64_t emb = vocab * h + seq_len * h;
  const std::int64_t attn = 4 * (h * h + h) + 2 * h;
  const std::int64_t mlp = h * 4 * h + 4 * h + 4 * h * h + h + 2 * h;
  const std::int64_t final_ln = 2 * h;
  return emb + layers * (attn + mlp) + final_ln;  // LM head ties embeddings
}

BuiltModel build_gpt2(const Gpt2Config& cfg) {
  const std::int64_t s = cfg.seq_len;
  const std::int64_t h = cfg.hidden;
  const std::int64_t a = cfg.num_heads();
  const std::int64_t dh = h / a;

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
    // Pre-norm attention.
    ValueId ln1 = layer_norm(g, p + ".ln1", x, Shape{s, h});
    ValueId q = linear(g, p + ".attn.q", ln1, s, h, h);
    ValueId k = linear(g, p + ".attn.k", ln1, s, h, h);
    ValueId v = linear(g, p + ".attn.v", ln1, s, h, h);
    auto heads3 = [&](ValueId t, const std::string& n, bool kt) {
      ValueId r = g.add_task(p + ".attn." + n + "_split", OpKind::Reshape, {t},
                             Shape{s, a, dh});
      OpAttrs perm;
      if (kt)
        perm.set("perm0", std::int64_t{1}).set("perm1", std::int64_t{2}).set("perm2", std::int64_t{0});
      else
        perm.set("perm0", std::int64_t{1}).set("perm1", std::int64_t{0}).set("perm2", std::int64_t{2});
      return g.add_task(p + ".attn." + n + "_perm", OpKind::Transpose, {r},
                        kt ? Shape{a, dh, s} : Shape{a, s, dh}, DType::F32,
                        perm);
    };
    ValueId qh = heads3(q, "q", false);
    ValueId kh = heads3(k, "k", true);
    ValueId vh = heads3(v, "v", false);
    ValueId scores =
        g.add_task(p + ".attn.scores", OpKind::MatMul, {qh, kh}, Shape{a, s, s});
    scores = g.add_task(p + ".attn.scale", OpKind::Scale, {scores},
                        Shape{a, s, s}, DType::F32,
                        OpAttrs{}.set("scale", 1.0 / std::sqrt(static_cast<double>(dh))));
    scores = g.add_task(p + ".attn.mask", OpKind::Add, {scores, causal_mask},
                        Shape{a, s, s});
    ValueId probs =
        g.add_task(p + ".attn.softmax", OpKind::Softmax, {scores}, Shape{a, s, s});
    ValueId ctx =
        g.add_task(p + ".attn.context", OpKind::MatMul, {probs, vh}, Shape{a, s, dh});
    ctx = g.add_task(p + ".attn.merge_perm", OpKind::Transpose, {ctx},
                     Shape{s, a, dh}, DType::F32,
                     OpAttrs{}.set("perm0", std::int64_t{1})
                              .set("perm1", std::int64_t{0})
                              .set("perm2", std::int64_t{2}));
    ctx = g.add_task(p + ".attn.merge", OpKind::Reshape, {ctx}, Shape{s, h});
    ValueId attn_out = linear(g, p + ".attn.out", ctx, s, h, h);
    x = g.add_task(p + ".attn.residual", OpKind::Add, {attn_out, x}, Shape{s, h});
    // Pre-norm MLP.
    ValueId ln2 = layer_norm(g, p + ".ln2", x, Shape{s, h});
    ValueId ff = linear(g, p + ".mlp.fc1", ln2, s, h, 4 * h);
    ff = g.add_task(p + ".mlp.gelu", OpKind::Gelu, {ff}, Shape{s, 4 * h});
    ff = linear(g, p + ".mlp.fc2", ff, s, 4 * h, h);
    x = g.add_task(p + ".mlp.residual", OpKind::Add, {ff, x}, Shape{s, h});
    end_layer();
  }

  begin_layer("lm_head");
  x = layer_norm(g, "final_ln", x, Shape{s, h});
  // Tied LM head: project with the (transposed) token embedding table.
  ValueId wte_t = g.add_task("lm_head.tie_transpose", OpKind::Transpose, {wte},
                             Shape{h, cfg.vocab}, DType::F32,
                             OpAttrs{}.set("perm0", std::int64_t{1})
                                      .set("perm1", std::int64_t{0}));
  ValueId logits =
      g.add_task("lm_head.decoder", OpKind::MatMul, {x, wte_t}, Shape{s, cfg.vocab});
  ValueId loss = g.add_task("lm_head.loss", OpKind::CrossEntropy,
                            {logits, labels}, Shape{});
  g.mark_output(loss);
  end_layer();

  return m;
}

}  // namespace rannc
